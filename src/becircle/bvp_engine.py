"""Generic numerical machinery: grids, quadrature, damped Newton for the
semilinear two-point problem, tridiagonal solves, and a symmetric-tridiagonal
eigensolver.  Dirichlet operators are bisected on Sturm counts by LAPACK
(stebz).  A corner-coupled periodic operator is bordered: stebz brackets its
eigenvalues by interlacing with the leading block's, and inside each bracket
a safeguarded Newton iteration finds the zero of the scalar Schur
complement, whose sign is the inertia count.  Periodic operators below
dimension 64 are solved dense.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import DomainError, NonConvergence, SingularJacobian
from .scalar_field import potential_d1, potential_d2

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


def _count_at_most(diag, offdiag, x, bounds):
    """Number of eigenvalues at or below x, given Gershgorin bounds (lo, hi).

    stebz takes the count from the Sturm counts at the ends of the interval;
    a tolerance as wide as the spectrum stops it from refining the
    eigenvalues inside, which would cost a bisection per eigenvalue.
    """
    lo, hi = bounds
    floor = lo - 1.0 - abs(lo)
    if x <= floor:
        return 0
    return len(_stebz(diag, offdiag, "v", (floor, x), hi - floor))


def _bordered_schur(op):
    """Scalar Schur complement of a periodic operator's last row and column.

    Returns the function x -> (s(x), |y|^2), where y = (B - xI)^{-1} w solves
    the leading (n-1) block B bordered by w (the corner and the last
    off-diagonal) and s(x) = (d_n - x) - w.y.  One banded solve gives both;
    s'(x) = -1 - |y|^2, so s decreases strictly between the poles at B's
    eigenvalues.  A singular pivot is retried at a shift a few ulps away.
    """
    n = op.dim
    d, e = op.diag, op.offdiag
    w = np.zeros(n - 1)
    w[0] = op.corner
    w[-1] = e[-1]
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = e[:-1]
    ab[2, :-1] = e[:-1]
    dmax = np.abs(d).max()

    def schur(x):
        xs = x
        for attempt in range(4):
            ab[1] = d[:-1] - xs
            try:
                y = solve_banded((1, 1), ab, w)
            except np.linalg.LinAlgError:
                y = None
            if y is not None and np.all(np.isfinite(y)):
                return (d[-1] - xs) - w @ y, y @ y
            xs = x + (attempt + 1) * 64.0 * _EPS_MACH * (abs(x) + dmax)
        raise SingularJacobian("periodic Sturm counting failed near a pivot")

    return schur


def _count_below_periodic(schur, shifts, block_counts):
    """Eigenvalue counts of the corner-coupled matrix by bordering.

    Inertia additivity: count(A - xI) equals the count of the leading (n-1)
    block, given in block_counts for each shift, plus one when the scalar
    Schur complement of the last row/column is negative.
    """
    return [k + int(schur(x)[0] < 0) for x, k in zip(shifts, block_counts)]


def _schur_root(schur, lo, hi, tol, margin):
    """The zero of the bordered Schur complement s in the bracket (lo, hi).

    Safeguarded Newton.  Every evaluation moves one end of the bracket by the
    sign of s, which is the inertia count.  The next iterate is the Newton
    point, except when it steps away from the nearer bracket end: there the
    pole dominates, and the step goes to the zero of the one-pole model
    a + b/(pole - x) that matches s and s'.  Either step is pushed tol/4
    further, so that once the iteration has converged it lands beyond the
    zero and the bracket closes from both sides.  The iterate is kept
    `margin` away from the original ends, where the float64 pole of s need
    not sit on the stebz eigenvalue and the sign of s is not the count.  The
    midpoint replaces a point outside the bracket, and any point once eight
    evaluations have not halved the bracket, so the loop always ends.  It
    ends when the bracket is at most tol wide, as plain bisection would.
    """
    lo0, hi0 = lo, hi
    x = 0.5 * (lo + hi)
    halved_at, stale = hi - lo, 0
    while hi - lo > tol:
        s, yy = schur(x)
        if s < 0:
            hi = x
        else:
            lo = x
        stale += 1
        if hi - lo <= 0.5 * halved_at:
            halved_at, stale = hi - lo, 0
        step = abs(s) / (1.0 + yy)
        near_hi = hi0 - x <= x - lo0
        t = hi0 - x if near_hi else x - lo0
        if (s < 0) == near_hi and step < t:   # stepping away from the nearer end
            step *= t / (t - step)
        x += math.copysign(step + 0.25 * tol, s)
        x = min(max(x, lo0 + margin), hi0 - margin)
        if stale >= 8 or not lo < x < hi:
            x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def eig_sturm(op, how_many, tol=1e-10, zero_threshold=None):
    """Lowest eigenvalues to tol, with exact global sign counts.

    A Dirichlet operator is handed whole to LAPACK's Sturm bisection, stebz.
    For a periodic operator, stebz gives the leading (n-1) block's
    eigenvalues, which bracket the full matrix's by interlacing.  Inside each
    bracket the eigenvalue is the zero of the bordered Schur complement s,
    found by safeguarded Newton (`_schur_root`): one banded solve gives s and
    s', and the sign of s, the inertia count, moves one end of the bracket,
    until the bracket is at most tol wide.  Periodic operators of dimension
    below 64 are solved dense, because at n = 2 the corner and the
    off-diagonal are one matrix entry and the bordering drops the corner
    (eigenvalues (1, 3) for an operator whose spectrum is (0, 4)).  The zero
    threshold defaults to 1e-8 times the largest returned magnitude.
    """
    n = op.dim
    if how_many > n:
        raise DomainError("how_many exceeds the operator dimension")

    if op.boundary == "periodic" and n < 64:
        evals = np.linalg.eigvalsh(op.dense())
        low = evals[:how_many]
        tau = zero_threshold if zero_threshold is not None else 1e-8 * np.max(np.abs(low))
        n_neg = int(np.sum(evals < -tau))
        n_zero = int(np.sum(np.abs(evals) <= tau))
        return SpectrumReport(eigenvalues=low, zero_threshold=tau,
                              n_negative=n_neg, n_zero=n_zero,
                              n_positive=n - n_neg - n_zero)

    periodic = op.boundary == "periodic"
    # Gershgorin bounds
    radius = np.zeros(n)
    radius[:-1] += np.abs(op.offdiag)
    radius[1:] += np.abs(op.offdiag)
    if periodic:
        radius[0] += abs(op.corner)
        radius[-1] += abs(op.corner)
    bounds = (float(np.min(op.diag - radius)), float(np.max(op.diag + radius)))

    # stebz sees the whole Dirichlet operator, or the periodic one's leading block
    td, te = (op.diag[:-1], op.offdiag[:-1]) if periodic else (op.diag, op.offdiag)
    if periodic:
        # interlacing puts the j-th eigenvalue between the block's (j-1)-th
        # and j-th, where the block count is j - 1; the bracket ends carry the
        # block's bisection error into the result, so it is bisected finer
        block_low = _stebz(td, te, "i", (0, min(how_many, n - 1) - 1), tol / 8.0)
        los = np.concatenate(([bounds[0]], block_low))[:how_many]
        his = np.concatenate((block_low, [bounds[1]]))[:how_many]
        # the float64 pole of s lies within tol/8 and a few ulps of the
        # operator's norm of the stebz value; next to it, s has either sign
        margin = tol / 8.0 + 2.0 * _EPS_MACH * max(-bounds[0], bounds[1])
        schur = _bordered_schur(op)
        evals = np.array([_schur_root(schur, lo, hi, tol, margin)
                          for lo, hi in zip(los, his)])
    else:
        evals = _stebz(td, te, "i", (0, how_many - 1), tol)

    tau = zero_threshold if zero_threshold is not None else 1e-8 * np.max(np.abs(evals))
    below = [_count_at_most(td, te, x, bounds) for x in (-tau, tau)]
    if periodic:
        below = _count_below_periodic(schur, [-tau, tau], below)
    below_neg, below_pos = below
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
