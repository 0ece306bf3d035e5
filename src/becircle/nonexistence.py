"""Absolute-minimizer experiments: the n >= 2 logarithmic-cutoff construction
driving the infimum of the balanced energy to zero, and the two-node
non-attainment scan on the circle.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .balanced_energy import NodeConfig, broken_transition
from .bvp_engine import simpson
from .errors import DomainError
from .scalar_field import potential
from .solver_1d import min_energy

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


def cutoff_energy(spec):
    """Exact radial energy of the log cutoff: closed-form gradient plus the
    potential term quadrature (W = 1/4 on the inner ball, W(f) on the ramp).
    DomainError if the energy is not finite in float64 (eps near either end
    of its range, or k near 1 in the gradient's 1/ln(k)^2)."""
    w = _sphere_area(spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        ball = w * spec.delta ** spec.n / spec.n * potential(0.0) / spec.eps
        r = np.linspace(spec.delta, spec.k * spec.delta, 4001)
        h = r[1] - r[0]
        f = np.log(r / spec.delta) / math.log(spec.k)
        ramp = w * simpson(potential(f) * r ** (spec.n - 1), h) / spec.eps
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
    no point left raises `DomainError`.
    """
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
    vals = []
    for p in kept:
        bt = broken_transition(NodeConfig(np.array([0.0, p])), eps,
                               points_per_eps=points_per_eps)
        vals.append(bt.be)
    reference = min_energy(eps, 1.0, points_per_eps=points_per_eps)
    be = np.array(vals)
    return TwoNodeScan(eps=eps, p=np.array(kept), be=be, reference=reference,
                       gap=be - reference, dropped=dropped)
