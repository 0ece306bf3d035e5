"""Absolute-minimizer experiments: the n >= 2 logarithmic-cutoff construction
driving the infimum of the balanced energy to zero, and the two-node
non-attainment scan on the circle.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .balanced_energy import NodeConfig, transition_arcs
from .errors import DomainError
from .scalar_field import potential
from .solver_1d import check_eps, dirichlet_arc, dirichlet_pairs

_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class CutoffSpec:
    """Radial log-cutoff 0 -> 1 between delta and k*delta in flat R^n.

    For n = 2 the coupled choice delta = 1/(k ln k) is applied automatically
    when delta is omitted, keeping k*delta bounded.  Gamma(n/2) (so n <= 343)
    and (k*delta)^n, which the energy forms, must be finite in float64.
    """
    n: int
    k: float
    eps: float
    delta: float = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("ambient dimension must be >= 2")
        if not 1.0 < self.k < math.inf:
            raise DomainError("k must be finite and exceed 1")
        if not 0.0 < self.eps < math.inf:
            raise DomainError("eps must be positive and finite")
        if self.delta is None:
            if self.n == 2:
                object.__setattr__(self, "delta", 1.0 / (self.k * math.log(self.k)))
            else:
                raise DomainError("delta required for n >= 3")
        if not 0.0 < self.delta < math.inf:
            raise DomainError("delta must be positive and finite")
        if max(math.lgamma(self.n / 2.0), self.n * math.log(self.k * self.delta)) >= _LOG_MAX:
            raise DomainError(f"Gamma(n/2) or (k*delta)^n overflows float64 at n = {self.n}, "
                              f"k*delta = {self.k * self.delta:.6g}")


def _sphere_area(n):
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def cutoff_gradient_closed(spec):
    """Closed form of the gradient term (eps/2) int |f'|^2 over the ramp."""
    w = _sphere_area(spec.n)
    lk = math.log(spec.k)
    if spec.n == 2:
        radial = lk
    else:
        radial = (((spec.k * spec.delta) ** (spec.n - 2)
                   - spec.delta ** (spec.n - 2)) / (spec.n - 2))
    return 0.5 * spec.eps * w * radial / lk ** 2


def _ramp_integral(spec):
    """int_delta^(k delta) W(f) r^(n-1) dr / ln k, in closed form.

    With s = ln(r/delta)/ln k (so f = s) and a = n ln k this is
    delta^n int_0^1 W(s) e^(a s) ds, and four integrations by parts of the
    quartic W give [(k delta)^n (2a^2 - 6a + 6) - delta^n (a^4 - 4a^2 + 24)/4]
    / a^5.  Neither quadratic has a real root, but their difference cancels
    at small a, so below a = 4 it is the series delta^n sum_j a^j/j! m_j over
    the moments m_j = int_0^1 s^j W(s) ds = (1/(j+1) - 2/(j+3) + 1/(j+5))/4;
    forty terms leave a remainder below 4^40/40! ~ 2e-24.  (k delta)^n is
    formed as such, not as e^a delta^n: `CutoffSpec` keeps it finite.
    """
    a = spec.n * math.log(spec.k)
    inner = np.float64(spec.delta) ** spec.n
    if a < 4.0:
        total, term = 0.0, 1.0
        for j in range(40):
            total += term * (1.0 / (j + 1) - 2.0 / (j + 3) + 1.0 / (j + 5)) / 4.0
            term *= a / (j + 1)
        return inner * total
    outer = np.float64(spec.k * spec.delta) ** spec.n
    return (outer * (2.0 * a * a - 6.0 * a + 6.0)
            - inner * (a ** 4 - 4.0 * a * a + 24.0) / 4.0) / a ** 5


def cutoff_energy(spec):
    """Exact radial energy of the log cutoff: the closed-form gradient, ball
    (W = 1/4 on the inner ball) and ramp (W(f)) terms.  DomainError if the
    energy is not finite in float64 (eps near either end of its range, or k
    near 1 in the gradient's 1/ln(k)^2)."""
    w = _sphere_area(spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        ball = w * spec.delta ** spec.n / spec.n * potential(0.0) / spec.eps
        ramp = w * math.log(spec.k) * _ramp_integral(spec) / spec.eps
        energy = cutoff_gradient_closed(spec) + ball + ramp
    if not math.isfinite(energy):
        raise DomainError(f"the cutoff energy overflows float64 at n = {spec.n}, "
                          f"k = {spec.k!r}, eps = {spec.eps!r}, delta = {spec.delta!r}")
    return energy


@dataclass(frozen=True)
class TwoNodeScan:
    eps: float
    p: np.ndarray
    be: np.ndarray
    reference: float          # E_eps(u_{0,eps}): single-arc minimizer, nodes merged
    gap: np.ndarray           # be - reference
    dropped: list = field(default_factory=list)


def two_node_scan(eps, p_grid, points_per_eps=50):
    """BE({0, p}) over the grid against the merged single-node minimizer.

    Grid points whose shorter arc drops to 1.05 pi eps or below are dropped
    and flagged rather than modeled by the degenerate u = 0 arc; a grid with
    no point left raises `DomainError`, and so does an eps that is not
    positive and finite, before the grid is filtered.
    """
    check_eps(eps)
    p_grid = np.asarray(p_grid, dtype=float)
    if not np.all(np.isfinite(p_grid)):
        raise DomainError(f"grid points must be finite, got {p_grid.tolist()}")
    floor = 1.05 * math.pi * eps
    kept, dropped = [], []
    for p in p_grid:
        if min(p, 1.0 - p) > floor:
            kept.append(p)
        else:
            dropped.append((float(p), f"arc {min(p, 1 - p):.6g} <= 1.05*pi*eps"))
    if not kept:
        raise DomainError(f"no grid point of {p_grid.tolist()} has both arcs above "
                          f"1.05*pi*eps = {floor:.6g}")

    def arcs():
        for p in kept:
            yield from transition_arcs(NodeConfig(np.array([0.0, p])), eps, points_per_eps)
        yield dirichlet_arc(1.0, eps, points_per_eps)

    # every kept point's two arcs, then the reference arc, in one solve
    sols = dirichlet_pairs(arcs())
    be = np.array([float(sum(next(sols).energy for _ in range(2))) for _ in kept])
    reference = next(sols).energy
    return TwoNodeScan(eps=eps, p=np.array(kept), be=be, reference=reference,
                       gap=be - reference, dropped=dropped)
