"""Generic numerical machinery: grids, quadrature, Newton with full steps
for the semilinear two-point problem (started from the closed form), and the
linearized operator -eps^2 D^2 + W''(u) with its tridiagonal solve (LAPACK
gtsv) and symmetric-tridiagonal eigensolver.  Every eigenproblem is
bisected on Sturm counts by LAPACK (stebz).
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np
# solve_banded is not called: bench/tracing.py reads bvp_engine.solve_banded;
# once the tracer drops that read (ROADMAP item 4), drop it from this import
from scipy.linalg import eigvalsh_tridiagonal, solve_banded
from scipy.linalg.lapack import dgtsv

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
    """Symmetric tridiagonal operator."""
    diag: np.ndarray
    offdiag: np.ndarray
    # not a field: bench/tracing.py reads op.boundary; once the tracer drops
    # that read (ROADMAP item 4), delete this line
    boundary = "dirichlet"

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if e.shape != (d.shape[0] - 1,):
            raise DomainError("offdiag must have len(diag) - 1 entries")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def dim(self):
        return self.diag.shape[0]

    def matvec(self, v):
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
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


def richardson(coarse, fine):
    """h^2-Richardson combination of a quantity on grids of step h and h/2."""
    return (4.0 * fine - coarse) / 3.0


def cumulative_simpson(values, h):
    """Cumulative integral on the grid, fourth-order accurate.

    Even indices accumulate Simpson pairs; odd indices add the local
    quadratic partial panel (h/12)(5 f_{j-1} + 8 f_j - f_{j+1}).  It
    allocates the output and two scratch arrays of (n - 1) // 2 points, and
    works in place on them with the operands in the order of the plain
    expressions, so the result is the same bit for bit.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 3:
        raise DomainError("cumulative_simpson needs at least 3 points")
    out = np.empty(n)
    out[0] = 0.0
    k = 2 * ((n - 1) // 2)  # odd indices below k have both neighbours
    # pairs: (h/3)(v[j] + 4 v[j+1] + v[j+2]) at even j
    a = np.multiply(v[1:k:2], 4.0)
    np.add(v[0:k:2], a, out=a)
    a += v[2:k + 1:2]
    a *= h / 3.0
    np.cumsum(a, out=out[2:k + 1:2])
    # partial panels: (h/12)(5 v[j-1] + 8 v[j] - v[j+1]) at odd j
    np.multiply(v[0:k - 1:2], 5.0, out=a)
    b = np.multiply(v[1:k:2], 8.0)
    a += b
    a -= v[2:k + 1:2]
    a *= h / 12.0
    np.add(out[0:k - 1:2], a, out=out[1:k:2])
    if n % 2 == 0:  # last index is odd: backward panel
        out[-1] = out[-2] + (h / 12.0) * (-v[-3] + 8.0 * v[-2] + 5.0 * v[-1])
    return out


def linearized_operator(values, c2):
    """-eps^2 D^2 + W''(u) about the grid values u, c2 = (eps/h)^2, with zero
    Dirichlet data beyond both ends: diagonal 2 c2 + W''(u), couplings -c2.

    This is Newton's Jacobian (negated), the transmission solve's matrix, and
    the operator whose spectrum dirichlet_gap and ac_spectrum report.
    """
    return TridiagonalOperator(diag=2.0 * c2 + potential_d2(values),
                               offdiag=np.full(len(values) - 1, -c2))


def solve_tridiagonal(op, rhs):
    """Solve op x = rhs by LAPACK gtsv; raises SingularJacobian on a zero pivot
    or a non-finite x (from a NaN or inf in op or rhs).  gtsv's wrapper rejects
    n = 1; no caller builds that, as a GridFunction has n >= 3.
    """
    *_, x, info = dgtsv(op.offdiag, op.diag, op.offdiag, rhs)
    if info > 0:
        raise SingularJacobian(f"singular tridiagonal operator: zero pivot {info}")
    if not np.all(np.isfinite(x)):
        raise SingularJacobian("non-finite solution from tridiagonal solve")
    return x


def newton_semilinear(grid, eps, tol=1e-12, max_iter=100):
    """Newton for  eps^2 u'' = W'(u)  on the half [0, L/2] of an arc whose
    solution is even about its midpoint L/2.

    The grid is the half: its left value is the Dirichlet datum and its right
    end, u_M, is the midpoint, an unknown with the ghost value u_{M+1} =
    u_{M-1}.  The midpoint row of the Jacobian couples to u_{M-1} twice, so
    it and its residual entry are halved: an exact scaling that keeps the
    matrix symmetric tridiagonal for gtsv.  The result is the solved half on
    the same grid, and the residual below is the full arc's sup norm.

    Every iteration takes the full step: callers start it from the elliptic
    closed form, where each step cuts the residual at least 18x (L/eps from
    pi to 1950, every grid intervals_for gives).  Rounding limits the
    residual to about machine_eps * (eps/h)^2.  Below tol the iteration
    stops; below that floor the residual is rounding noise, so the step
    just solved for is applied and the iteration stops: the error after it
    is O(|step|^2) (Deuflhard, Newton Methods for Nonlinear Problems, 2.1).
    NonConvergence if max_iter steps end above both.  A guess far from the
    closed form crawls (a cubic W' shrinks a large u by a third per step)
    or overflows W'(u): NonConvergence or SingularJacobian.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    u = grid.values.copy()
    h = grid.h
    c2 = (eps / h) ** 2
    floor = 16.0 * _EPS_MACH * c2 * max(1.0, float(np.max(np.abs(u))))

    def residual(w):
        w = np.append(w, w[-2])  # the ghost value beyond the midpoint
        return c2 * (w[2:] - 2.0 * w[1:-1] + w[:-2]) - potential_d1(w[1:-1])

    r = residual(u)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        op = linearized_operator(u[1:], c2)
        op.diag[-1] *= 0.5
        r[-1] *= 0.5
        u[1:] += solve_tridiagonal(op, r)
        if rnorm <= floor:
            break  # the residual was rounding noise: the step ends the iteration
        r = residual(u)
        rnorm = float(np.max(np.abs(r)))
    else:
        if not rnorm <= max(tol, floor):
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


def eig_sturm(op, how_many, tol=1e-10, zero_threshold=None):
    """Lowest eigenvalues to tol, with exact global sign counts.

    The eigenvalues come from LAPACK's Sturm bisection, stebz.  Each count
    at +-tau is one stebz call over (-inf, x] with an unbounded tolerance:
    stebz clips the interval to its own Gershgorin bounds, takes the count
    from the Sturm counts at its ends and refines no eigenvalue inside.  The
    zero threshold tau defaults to 1e-8 times the largest returned magnitude.
    An operator with a non-finite entry raises DomainError.
    """
    n = op.dim
    if not (isinstance(how_many, numbers.Integral) and 1 <= how_many <= n):
        raise DomainError(f"how_many must be an integer in [1, {n}], got {how_many!r}")
    if not (np.all(np.isfinite(op.diag)) and np.all(np.isfinite(op.offdiag))):
        raise DomainError("operator entries must be finite")
    evals = _stebz(op.diag, op.offdiag, "i", (0, how_many - 1), tol)
    tau = zero_threshold if zero_threshold is not None else 1e-8 * np.max(np.abs(evals))
    below_neg, below_pos = (len(_stebz(op.diag, op.offdiag, "v", (-np.inf, x), np.inf))
                            for x in (-tau, tau))
    return SpectrumReport(eigenvalues=evals, zero_threshold=tau,
                          n_negative=below_neg, n_zero=below_pos - below_neg,
                          n_positive=n - below_pos)

