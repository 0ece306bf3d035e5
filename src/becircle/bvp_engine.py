"""Generic numerical machinery: grids, quadrature, damped Newton for the
semilinear two-point problem, tridiagonal solves, and a symmetric-tridiagonal
eigensolver based on Sturm-sequence bisection in LAPACK (stebz), with
bordered Schur-complement counting for the corner-coupled periodic case and
a dense fallback below dimension 64.
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
    j = np.arange(1, n, 2)
    j_in = j[j + 1 <= n - 1]
    out[j_in] = out[j_in - 1] + (h / 12.0) * (5.0 * v[j_in - 1] + 8.0 * v[j_in] - v[j_in + 1])
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

    Accepts the undamped step when the sup residual decreases, otherwise
    halves it (at most 40 times).  The achievable residual is limited by
    rounding at about machine_eps * (eps/h)^2; convergence is declared at
    max(tol, that floor) once the iteration stagnates.
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
        t = 1.0
        accepted = False
        for _ in range(40):
            trial = u.copy()
            trial[1:-1] = u[1:-1] + t * delta
            rt = residual(trial)
            # accept on the smoother 2-norm; convergence is still sup-norm
            rt2 = float(np.linalg.norm(rt))
            if rt2 < r2:
                u, r, r2 = trial, rt, rt2
                rnorm = float(np.max(np.abs(rt)))
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # Levenberg-style rescue: damp the Jacobian diagonal until the
            # step descends (widens the basin for rough initial guesses
            # without moving the fixed point)
            for mu in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0):
                delta = solve_tridiagonal(
                    -2.0 * c2 - potential_d2(u[1:-1]) - mu,
                    np.full(grid.n - 1, c2), -r)
                trial = u.copy()
                trial[1:-1] = u[1:-1] + delta
                rt = residual(trial)
                rt2 = float(np.linalg.norm(rt))
                if rt2 < r2:
                    u, r, r2 = trial, rt, rt2
                    rnorm = float(np.max(np.abs(rt)))
                    accepted = True
                    break
        if not accepted:
            # stagnated at the rounding floor of the residual evaluation
            if rnorm <= max(tol, floor):
                break
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


def _count_below_periodic(op, shifts, block_counts):
    """Eigenvalue counting for the corner-coupled matrix by bordering.

    Inertia additivity: count(A - xI) equals the count of the leading (n-1)
    block, given in block_counts for each shift, plus one when the scalar
    Schur complement of the last row/column is negative.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    n = op.dim
    d, e, c = op.diag, op.offdiag, op.corner
    counts = np.array(block_counts, dtype=int)
    w = np.zeros(n - 1)
    w[0] = c
    w[-1] = e[-1]
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = e[:-1]
    ab[2, :-1] = e[:-1]
    for j, x in enumerate(shifts):
        xs = x
        for attempt in range(4):
            ab[1] = d[:-1] - xs
            try:
                y = solve_banded((1, 1), ab, w)
            except np.linalg.LinAlgError:
                y = None
            if y is not None and np.all(np.isfinite(y)):
                break
            xs = x + (attempt + 1) * 64.0 * _EPS_MACH * (abs(x) + np.abs(d).max())
        else:
            raise SingularJacobian("periodic Sturm counting failed near a pivot")
        schur = (d[-1] - xs) - w @ y
        if schur < 0:
            counts[j] += 1
    return counts


def eig_sturm(op, how_many, tol=1e-10, zero_threshold=None):
    """Lowest eigenvalues by Sturm bisection, with exact global sign counts.

    The bisection is LAPACK's stebz.  A Dirichlet operator is handed to it
    whole.  For a periodic operator, stebz gives the leading (n-1) block's
    eigenvalues, which bracket the full matrix's by interlacing; inside each
    bracket the sign of the bordered Schur complement, one banded solve per
    bisection shift, decides the count.  Periodic operators of dimension
    below 64 are solved dense.  The zero threshold defaults to 1e-8 times the
    largest returned magnitude.
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
        targets = np.arange(1, how_many + 1)
        while np.max(his - los) > tol:
            mids = 0.5 * (los + his)
            above = _count_below_periodic(op, mids, targets - 1) >= targets
            his = np.where(above, mids, his)
            los = np.where(above, los, mids)
        evals = 0.5 * (los + his)
    else:
        evals = _stebz(td, te, "i", (0, how_many - 1), tol)

    tau = zero_threshold if zero_threshold is not None else 1e-8 * np.max(np.abs(evals))
    below = [_count_at_most(td, te, x, bounds) for x in (-tau, tau)]
    if periodic:
        below = _count_below_periodic(op, [-tau, tau], below)
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
