"""Generic numerical machinery: grids, quadrature, Newton with full steps
for the semilinear two-point problem (started from the closed form; the
halves of a chunk of a sweep's whole arcs in one block tridiagonal system,
bit for bit one solve per half, so the per-call cost of numpy and LAPACK is
paid once per chunk: newton_halves takes the halves as arrays, lays them
out in its own buffer and returns them solved, leaving its inputs as they
are), and the linearized operator
-eps^2 D^2 + W''(u) with its tridiagonal solve (LAPACK gtsv) and
symmetric-tridiagonal eigensolver.  Every eigenproblem is
bisected on Sturm counts by LAPACK (stebz, called directly), in one
eig_sturm call per spectrum, on an operator whose zero couplings split it
into the smallest symmetric blocks its caller can build.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np
# solve_banded is not called: bench/tracing.py reads bvp_engine.solve_banded;
# once the tracer drops that read (ROADMAP item 4), drop it from this import
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dstebz

from .errors import DomainError, NonConvergence, SingularJacobian
# potential_d1 is not called (_nonlinearity forms W' in place):
# bench/tracing.py reads bvp_engine.potential_d1; once the tracer drops that
# read (ROADMAP item 4), drop it from this import
from .scalar_field import potential_d1, potential_d2

_EPS_MACH = np.finfo(float).eps


@dataclass(frozen=True)
class GridFunction:
    """Uniformly sampled function on [0, L], endpoints included: n + 2 >= 5 values."""
    L: float
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.L < math.inf:
            raise DomainError(f"GridFunction requires 0 < L < inf, got {self.L!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 5:
            raise DomainError("values must be one-dimensional with at least 5 entries")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return len(self.values) - 2

    @property
    def h(self):
        return self.L / (self.n + 1)

    def x(self):
        return np.linspace(0.0, self.L, self.n + 2)


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


def _simpson_pairs(v, h, k):
    """The Simpson pairs (h/3)(v[j] + 4 v[j+1] + v[j+2]) at the even j < k,
    in one new array of k // 2 points."""
    a = np.multiply(v[1:k:2], 4.0)
    np.add(v[0:k:2], a, out=a)
    a += v[2:k + 1:2]
    a *= h / 3.0
    return a


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
    a = _simpson_pairs(v, h, k)
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


def cumulative_simpson_last(values, h):
    """cumulative_simpson(values, h)[-1], bit for bit, without the output
    array: the running sum of the Simpson pairs (np.cumsum, not the pairwise
    sum of `simpson`), closed by the backward panel on an even point count.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 3:
        raise DomainError("cumulative_simpson needs at least 3 points")
    a = _simpson_pairs(v, h, 2 * ((n - 1) // 2))
    total = np.cumsum(a, out=a)[-1]
    if n % 2 == 0:
        total = total + (h / 12.0) * (-v[-3] + 8.0 * v[-2] + 5.0 * v[-1])
    return total


def linearized_operator(values, c2):
    """-eps^2 D^2 + W''(u) about the grid values u, c2 = (eps/h)^2, with zero
    Dirichlet data beyond both ends: diagonal 2 c2 + W''(u), couplings -c2.

    This is the transmission solve's matrix and the operator whose spectrum
    dirichlet_gap and ac_spectrum report.  It is not Newton's Jacobian:
    newton_halves assembles the same entries, negated, in place in its own
    slot buffer (W''(u) from _nonlinearity plus 2 c2, the midpoint rows
    halved) and never calls it.
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


def _nonlinearity(u, d1=None, d2=None):
    """W'(u) into d1 and W''(u) into d2, each when given: the terms of
    Newton's residual and Jacobian, scalar_field's potential_d1 and
    potential_d2 in place, with the operands in their order, so the bits
    are theirs."""
    if d1 is not None:
        np.power(u, 3, out=d1)
        d1 -= u
    if d2 is not None:
        np.multiply(u, 3.0, out=d2)
        d2 *= u
        d2 -= 1.0


def newton_halves(halves, c2, tol=1e-12, max_iter=100):
    """Newton for  eps^2 u'' = W'(u)  on the halves [0, L/2] of arcs whose
    solutions are even about their midpoints, all halves in one block
    tridiagonal solve per iteration.

    Each half is a 1-D array u_0..u_M: its Dirichlet datum u_0, then its
    unknowns u_1..u_M, the midpoint last; c2[b] = (eps/h)^2 on the grid of
    half b.  The halves are copied once into one buffer, where half b takes
    M + 2 slots, the last for the ghost value u_{M+1} = u_{M-1}; the inputs
    are left as they are, and the solved halves are returned, in order, as
    views of that buffer.  The midpoint row of the Jacobian couples to
    u_{M-1} twice, so it and its residual entry are halved: an exact scaling
    that keeps the matrix symmetric tridiagonal for gtsv.  Each
    datum and ghost row is an identity row with zero couplings and right
    side 0, and so is every row of a half that has stopped; with those rows
    gtsv eliminates each half's rows as it would for that half alone, so
    each half gets the bits of its own solve.

    Every iteration takes the full step: callers start it from the elliptic
    closed form, where each step cuts the residual at least 18x (L/eps from
    pi to 1950, every grid intervals_for gives).  Rounding limits the
    residual to about machine_eps * (eps/h)^2.  Each half keeps its own stop:
    below tol it takes no step; below its rounding floor the residual is
    rounding noise, so the step just solved for is applied and the half
    stops: the error after it is O(|step|^2) (Deuflhard, Newton Methods for
    Nonlinear Problems, 2.1).  NonConvergence, for the first half in order,
    if max_iter steps end above both.  A guess far from the closed form
    crawls (a cubic W' shrinks a large u by a third per step) or overflows
    W'(u): NonConvergence or SingularJacobian.  The residual is the full
    arc's sup norm.  DomainError, before any work, for a tol outside
    (0, inf), no halves, a c2 count other than the half count, or a half of
    fewer than 3 points.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    points, c2 = [len(v) for v in halves], list(c2)
    if not (points and len(points) == len(c2) and min(points) >= 3):
        raise DomainError(f"{len(c2)} c2 values for halves of {points} points: "
                          f"one per half, each of at least 3 points")
    starts = np.cumsum([0] + [p + 1 for p in points[:-1]])
    ghosts = starts + np.array(points)
    layout = list(zip(starts.tolist(), ghosts.tolist(), c2))  # half b is u[s:g]
    n = sum(points) + len(points)
    u = np.empty(n)
    for (s, g, _), v in zip(layout, halves):
        u[s:g] = v
    off = np.zeros(n - 1)
    for s, g, c in layout:
        off[s + 1:g - 1] = -c
    d1, d2, r = np.empty(n), np.empty(n), np.empty(n)
    u[ghosts] = u[ghosts - 2]
    floors = [16.0 * _EPS_MACH * c * max(1.0, float(peak))
              for c, peak in zip(c2, np.maximum.reduceat(np.abs(u), starts))]

    def residual():
        """The residual rows of every half, and their sup norms."""
        u[ghosts] = u[ghosts - 2]
        t = r[1:-1]
        np.multiply(u[1:-1], 2.0, out=t)
        np.subtract(u[2:], t, out=t)
        t += u[:-2]
        for s, g, c in layout:
            r[s + 1:g] *= c
        _nonlinearity(u[1:-1], d1=d1[1:-1])
        t -= d1[1:-1]
        r[starts] = 0.0
        r[ghosts] = 0.0
        return np.maximum.reduceat(np.abs(r, out=d1), starts)

    active = list(range(len(points)))
    rnorm = residual()
    for _ in range(max_iter):
        active = [b for b in active if not rnorm[b] <= tol]
        if not active:
            break
        _nonlinearity(u[1:-1], d2=d2[1:-1])
        stepping = set(active)
        for b, (s, g, c) in enumerate(layout):
            if b in stepping:
                d2[s + 1:g] += 2.0 * c
                d2[g - 1] *= 0.5
                r[g - 1] *= 0.5
            else:   # stopped: an identity row, from now on
                d2[s + 1:g] = 1.0
                r[s + 1:g] = 0.0
                off[s + 1:g - 1] = 0.0
        d2[starts] = 1.0
        d2[ghosts] = 1.0
        u += solve_tridiagonal(TridiagonalOperator(diag=d2, offdiag=off), r)
        # a half whose residual was rounding noise stops after its step
        active = [b for b in active if not rnorm[b] <= floors[b]]
        if not active:
            break
        rnorm = residual()
    else:
        for b in active:
            if not rnorm[b] <= max(tol, floors[b]):
                res = float(rnorm[b])
                raise NonConvergence(
                    f"newton: residual {res:.3e} on half {b} of {len(points)} "
                    f"after {max_iter} iterations", residual=res, iterations=max_iter)
    return [u[s:g] for s, g, _ in layout]


def newton_semilinear(grid, eps, tol=1e-12, max_iter=100):
    """Newton for  eps^2 u'' = W'(u)  on the half [0, L/2] of an arc whose
    solution is even about its midpoint L/2: newton_halves on that one half.

    The grid is the half: its left value is the Dirichlet datum and its right
    end is the midpoint.  The result is the solved half on the same grid.
    """
    (v,) = newton_halves([grid.values], [(eps / grid.h) ** 2], tol, max_iter)
    return GridFunction(L=grid.L, values=v)


def _stebz(diag, offdiag, select, select_range, tol):
    """LAPACK bisection (Kahan's Sturm counts) on a symmetric tridiagonal
    matrix, one direct dstebz call, as solve_tridiagonal calls dgtsv.

    select "i" returns the ascending eigenvalues of 0-based indices
    select_range = (lo, hi), inclusive (dstebz range 2, 1-based il, iu);
    select "v" those in the half-open (lo, hi] (range 1).  Order "E": one
    ascending list over the whole matrix.  dstebz splits the matrix at its
    zero couplings and bisects each block on that block alone, so the
    blocks of a block-diagonal operator cost their own sizes.  The result is
    eigvalsh_tridiagonal(..., lapack_driver="stebz")'s, bit for bit, without
    that wrapper's finiteness and argument checks, which eig_sturm makes
    once.  A nonzero info raises NonConvergence.
    """
    lo, hi = select_range
    if select == "i":
        args = (2, 0.0, 1.0, lo + 1, hi + 1)   # vl, vu unread
    else:
        args = (1, lo, hi, 1, 1)               # il, iu unread
    if len(diag) == 1:
        offdiag = np.zeros(1)   # the wrapper wants a slot that dstebz leaves unread
    m, w, _, _, info = dstebz(diag, offdiag, *args, tol, "E")
    if info != 0:
        raise NonConvergence(f"stebz bisection failed: info = {info}")
    return w[:m]


def eig_sturm(op, how_many, tol=1e-10, zero_threshold=None):
    """Lowest eigenvalues to tol, with exact global sign counts.

    The eigenvalues come from LAPACK's Sturm bisection, stebz, one call for
    the whole operator: a block-diagonal operator (zero couplings between
    its blocks) is bisected block by block.  Each count at +-tau is one
    stebz call over (-inf, x] with an unbounded tolerance: stebz clips the
    interval to its own Gershgorin bounds, takes the count from the Sturm
    counts at its ends and refines no eigenvalue inside.  The zero
    threshold tau defaults to 1e-8 times the largest returned magnitude.
    DomainError, before any LAPACK call, for an operator with a non-finite
    entry, a tol outside (0, inf) or a zero_threshold outside [0, inf).
    """
    n = op.dim
    if not (isinstance(how_many, numbers.Integral) and 1 <= how_many <= n):
        raise DomainError(f"how_many must be an integer in [1, {n}], got {how_many!r}")
    if not (np.all(np.isfinite(op.diag)) and np.all(np.isfinite(op.offdiag))):
        raise DomainError("operator entries must be finite")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    if zero_threshold is not None and not 0.0 <= zero_threshold < math.inf:
        raise DomainError(f"zero_threshold must be None or in [0, inf), got {zero_threshold!r}")
    evals = _stebz(op.diag, op.offdiag, "i", (0, how_many - 1), tol)
    tau = zero_threshold if zero_threshold is not None else 1e-8 * np.max(np.abs(evals))
    below_neg, below_pos = (len(_stebz(op.diag, op.offdiag, "v", (-np.inf, x), np.inf))
                            for x in (-tau, tau))
    return SpectrumReport(eigenvalues=evals, zero_threshold=tau,
                          n_negative=below_neg, n_zero=below_pos - below_neg,
                          n_positive=n - below_pos)
