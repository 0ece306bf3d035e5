"""The balanced energy on node configurations of the circle: first variation,
the second-variation Hessian over node perturbations, the Dirichlet-to-Neumann
quantity v(eps), Morse index and nullity, the Allen-Cahn spectrum of the
2p-node solution on the circle, one operator of its four quarter-circle
blocks, the Dirichlet gap of an arc on its even half, and the experiments:
the index table, which solves each row's arc once for Q and the AC
spectrum, and the Gamma sweep of BE against a recovery comparator.

Every linearized quantity reads one operator, bvp_engine.linearized_operator
(-eps^2 D^2 + W''(u) with zero Dirichlet ends).  The transmission is one
float64 gtsv solve per grid with data (1, 0).  Its Neumann response b scales
with the conserved quantity lambda ~ 16 e^{-sqrt2 L/eps}, far below the O(1)
data, so b is read at the right end, where the data vanish.  It stays
resolved to the rounding floor until it underflows near L/eps = 505; past that
a typed DomainError is raised.
A configuration is critical exactly when all its arcs are equal, so the
Hessian solves one arc: Q = eps c^2 v times the cycle Laplacian, oriented by
the translation identity a = -b; the centered finite-difference Hessian of
the energy is the test that pins it.
BE is defined only where every arc is longer than pi*eps (eps below
solver_1d.existence_threshold); a shorter arc raises ArcTooShort.
The sweeps (broken_transitions over configurations and eps, gamma_sweep,
the pinned energies of the finite-difference oracle) solve all their arcs
in one solver_1d.dirichlet_pairs call: one block Newton per chunk of whole
arcs, at most 8192 half-grid points unless an arc alone is larger, bit for
bit one solve per arc, with memory bounded by the chunk.
The Gamma sweep's recovery comparator is the pure phase u = 1 outside the
transition layers within rho0/2 of a node, where its energy density is
exactly +0.0; comparator_energy evaluates the profile on the layers alone
and sums a density that is zero elsewhere, so the energy is the full grid's
bit for bit.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bvp_engine import (SpectrumReport, eig_sturm, linearized_operator,
                         richardson, simpson, solve_tridiagonal)
from .errors import (ArcTooShort, DomainError, NotCritical, SingularJacobian,
                     SingularSystem)
from .scalar_field import SQRT2, heteroclinic, potential, well_constants
from .solver_1d import (check_eps, dirichlet_arc, dirichlet_pairs,
                        existence_threshold, intervals_for, nodal_solution,
                        solve_dirichlet)


@dataclass(frozen=True)
class NodeConfig:
    """Even-cardinality sorted node set on the unit circle with alternating arcs."""
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2 or len(nodes) % 2 != 0:
            raise DomainError("a separating configuration needs an even node count >= 2")
        if not np.all((nodes >= 0.0) & (nodes < 1.0)):
            raise DomainError("nodes must be finite and lie in [0, 1)")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self):
        return len(self.nodes)

    def arc_lengths(self):
        return np.diff(np.append(self.nodes, self.nodes[0] + 1.0))


@dataclass(frozen=True)
class BrokenTransition:
    eps: float
    pieces: tuple            # per-arc DirichletSolution
    be: float


@dataclass(frozen=True)
class HessianReport:
    Q: np.ndarray
    c: float
    v: float
    spectrum: SpectrumReport
    index: int
    nullity: int


# hessian's bound on max l - min l over the arcs, in units of eps
_CRITICAL_SPREAD = 1e-6


def _check_arcs(lengths, eps):
    """Raise ArcTooShort on the first arc that admits no positive solution,
    after check_eps's DomainError for an eps that is not positive and finite."""
    check_eps(eps)
    for i, ell in enumerate(lengths):
        thr = existence_threshold(ell)
        if eps >= thr:
            raise ArcTooShort(
                f"arc {i} (length {ell:.6g}) is at or below pi*eps: "
                f"eps = {eps:.6g} >= L/pi = {thr:.6g}",
                arc=i,
            )


def transition_arcs(config, eps, points_per_eps=50):
    """The arcs (L, eps, m) of the config for solver_1d.dirichlet_pairs:
    ArcTooShort on the first arc too short, then each arc's dirichlet_arc."""
    lengths = config.arc_lengths()
    _check_arcs(lengths, eps)
    return [dirichlet_arc(ell, eps, points_per_eps) for ell in lengths]


def broken_transitions(cases, points_per_eps=50):
    """broken_transition of each (config, eps) of cases, with every arc of
    every case solved in one dirichlet_pairs call; each case is checked, in
    order, before any arc is solved."""
    cases = list(cases)
    sols = dirichlet_pairs(arc for config, eps in cases
                           for arc in transition_arcs(config, eps, points_per_eps))
    out = []
    for config, eps in cases:
        pieces = tuple(next(sols) for _ in range(config.m))
        out.append(BrokenTransition(eps=eps, pieces=pieces,
                                    be=float(sum(p.energy for p in pieces))))
    return out


def broken_transition(config, eps, points_per_eps=50):
    """Per-arc one-signed minimizers glued with alternating sign."""
    return broken_transitions([(config, eps)], points_per_eps)[0]


def first_variation(config, eps, f, points_per_eps=50):
    """dBE/dt for node motions q_i -> q_i + t f_i (f_i > 0 = counterclockwise).

    Moving node i grows the arc behind it and shrinks the arc ahead, so
    dBE/dq_i = (lambda_{i-1} - lambda_i)/eps via the conserved quantity of
    each arc: the squared-slope mismatch of the first-variation formula.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (config.m,) or not np.all(np.isfinite(f)):
        raise DomainError("perturbation must assign one finite real per node")
    bt = broken_transition(config, eps, points_per_eps)
    lam = np.array([p.lam for p in bt.pieces])
    return float(np.sum(f * (np.roll(lam, 1) - lam)) / eps)


def _transmission(arc):
    """Transmitted far-end slope b of eps^2 udot'' = W''(u) udot with data
    (1, 0) on a solved arc, h^2-Richardson paired over the arc's own grids u
    and u_half.

    One gtsv solve per grid; b is the one-sided five-point slope
    -(48 x_{-1} - 36 x_{-2} + 16 x_{-3} - 3 x_{-4})/(12 h) of the solved
    values x at the right end, where the datum is 0, so the stencil cancels
    nothing.  The continuum translation identity forces the near-end slope
    a = -b; the near-end extraction carries the discrete defect a + b, while
    b converges cleanly at second order (verified against the closed-form
    lambda asymptotics).  b ~ lambda/eps underflows float64 near L/eps = 505,
    so a b that is not a normal number raises DomainError instead of passing
    a zero or a subnormal on as v or Q.
    """
    vals = []
    for u in (arc.u, arc.u_half):
        c2 = (arc.eps / u.h) ** 2
        rhs = np.zeros(u.n)
        rhs[0] = c2                  # the left datum 1, moved to the right side
        try:
            x = solve_tridiagonal(linearized_operator(u.values[1:-1], c2), rhs)
        except SingularJacobian as exc:
            raise SingularSystem(f"linearized solve: {exc}") from exc
        b = -(48.0 * x[-1] - 36.0 * x[-2] + 16.0 * x[-3] - 3.0 * x[-4]) / (12.0 * u.h)
        if not abs(b) >= np.finfo(float).tiny:
            raise DomainError(
                f"transmission {b:.3g} at L/eps = {arc.L / arc.eps:.6g} is not a "
                "normal float64 (underflow)"
            )
        vals.append(b)
    return richardson(*vals)


def dtn_v(eps, L, points_per_eps=50):
    """The Dirichlet-to-Neumann quantity v(eps) of the unit symmetric data.

    This is the oriented Neumann response entering the second-variation
    structure Q = eps c^2 v(eps) x cycle Laplacian; it is negative for all
    admissible eps and satisfies v ~ sqrt2 lambda(eps) omega'(0) / eps.
    For eps >= L/pi the arc solve raises NoPositiveSolution.
    """
    return _transmission(solve_dirichlet(L, eps, points_per_eps))


def hessian(config, eps, points_per_eps=100):
    """Second-variation matrix Q over node perturbations at a critical config.

    lambda is strictly decreasing in the arc length and the arcs sum to 1, so
    a config is critical exactly when its m arcs are equal.  ArcTooShort comes
    first; then NotCritical is raised when max l - min l > 1e-6 eps (Q's
    relative error from one common arc is about sqrt2 (max l - min l)/eps,
    since lambda ~ e^{-sqrt2 l/eps}).  One arc of length 1/m gives the end
    slope c and the transmission v = b; the translation identity sets the
    near-end slope a = -b, so each arc adds eps c^2 v [[1, -1], [-1, 1]] on
    its two nodes and Q = eps c^2 v (2I - S - S^T), S the cyclic shift.  The
    finite-difference Hessian of the energy is the test that pins the sign.
    """
    m = config.m
    lengths = config.arc_lengths()
    _check_arcs(lengths, eps)
    spread = float(np.max(lengths) - np.min(lengths))
    if spread > _CRITICAL_SPREAD * eps:
        raise NotCritical(
            f"max - min arc length {spread:.3e} = {spread / eps:.3e} eps exceeds "
            f"the criticality bound {_CRITICAL_SPREAD:g} eps"
        )
    return _hessian_of_arc(solve_dirichlet(1.0 / m, eps, points_per_eps), m)


def _hessian_of_arc(arc, m):
    """hessian's report for m equal arcs, each the solved arc."""
    c, v = arc.slope_left, _transmission(arc)
    S = np.roll(np.eye(m), 1, axis=1)
    q = arc.eps * c * c * v
    # q < 0, so q * 0 is -0.0; subtracting from 2q I leaves the zeros +0.0
    Q = 2.0 * q * np.eye(m) - q * S - q * S.T
    evals = np.linalg.eigvalsh(Q)
    tau = 1e-8 * float(np.max(np.abs(Q)))
    n_neg = int(np.sum(evals < -tau))
    n_zero = int(np.sum(np.abs(evals) <= tau))
    spectrum = SpectrumReport(eigenvalues=evals, zero_threshold=tau,
                              n_negative=n_neg, n_zero=n_zero,
                              n_positive=m - n_neg - n_zero)
    return HessianReport(Q=Q, c=c, v=v, spectrum=spectrum, index=n_neg, nullity=n_zero)


def _pinned_be(config, eps, f, t, points_per_eps):
    """BE of the config with nodes shifted by t*f, on grids pinned to the
    base configuration's per-arc interval counts (Richardson-paired energies).

    Pinning removes integer regrid jumps so that centered differences see
    only the smooth energy landscape; this is the finite-difference oracle
    route for the variation formulas.
    """
    base_lengths = config.arc_lengths()
    nodes = config.nodes + t * np.asarray(f, dtype=float)
    lengths = np.diff(np.append(nodes, nodes[0] + 1.0))
    _check_arcs(lengths, eps)
    total = 0.0
    for sol in dirichlet_pairs((ell, eps, intervals_for(ell0, eps, points_per_eps))
                               for ell0, ell in zip(base_lengths, lengths)):
        total += sol.energy
    return total


def fd_first_variation(config, eps, f, points_per_eps=50):
    """Centered first difference of BE along the node perturbation f."""
    step = 1e-5
    plus = _pinned_be(config, eps, f, step, points_per_eps)
    minus = _pinned_be(config, eps, f, -step, points_per_eps)
    return (plus - minus) / (2.0 * step)


def translation_mode(sol):
    """Fourth-order discrete derivative of the nodal solution on the circle."""
    v = sol.u.values[:-1]
    h = sol.u.h
    return (-np.roll(v, -2) + 8.0 * np.roll(v, -1)
            - 8.0 * np.roll(v, 1) + np.roll(v, 2)) / (12.0 * h)


def ac_spectrum(sol, how_many):
    """Spectrum of -(eps^2 d^2 - W''(u)) on the circle at the nodal solution,
    with a translation-calibrated zero threshold.

    The periodic central differences (diagonal 2 c2 + W''(v_j), couplings
    -c2, c2 = eps^2/dx^2) commute with two mirrors: W''(v) is the same bit
    for bit at j and n - j (the solution is odd there) and at j and h - j,
    h = n/2 (each arc is an exact palindrome, and the half circle holds p
    of them; x = 1/4, index q = h/2, is a node for even p and an arc
    midpoint for odd p).  In the orthonormal basis of both mirrors the
    operator splits into four real blocks on the first quarter, named by
    their parity about x = 0 and about x = 1/4 (N even, D odd): (N,N) on
    indices 0..q, (N,D) on 0..q-1, (D,N) on 1..q and (D,D) on 1..q-1.  An
    even end keeps its point, whose neighbour is the pair
    (e_j + e_j')/sqrt2, so the coupling into it scales by sqrt2; an odd end
    drops its point.  One linearized_operator holds the four blocks in that
    order, with zero couplings between them, and one eig_sturm call
    bisects each block on its own.

    The discrete derivative of the solution is an exact kernel element of
    the discretization, even under j -> n - j; its Rayleigh quotient on
    that mirror's even sector (indices 0..h, end couplings times sqrt2)
    calibrates the zero threshold.
    """
    tol = 1e-12
    h = (sol.u.n + 1) // 2
    q = h // 2
    c2 = (sol.eps / sol.u.h) ** 2
    half = sol.u.values[:h + 1]
    even = linearized_operator(half, c2)
    even.offdiag[[0, -1]] *= SQRT2
    ux = translation_mode(sol)[:h + 1]
    ux[1:-1] *= SQRT2
    rq = float(ux @ even.matvec(ux) / (ux @ ux))
    tau = max(10.0 * abs(rq), 40.0 * tol)
    op = linearized_operator(
        np.concatenate((half[:q + 1], half[:q], half[1:q + 1], half[1:q])), c2)
    op.offdiag[[q, 2 * q, 3 * q]] = 0.0
    op.offdiag[[0, q - 1, q + 1, 3 * q - 1]] *= SQRT2
    return eig_sturm(op, how_many, tol=tol, zero_threshold=tau)


def dirichlet_gap(eps, L, points_per_eps=50):
    """Lowest Dirichlet eigenvalue of -(eps^2 d^2 - W''(u)) on the arc.

    The arc operator has negative couplings, so its ground state is
    positive, hence even about the midpoint M = m/2 of the m-interval arc
    (W''(u) is a palindrome there).  It is the lowest eigenvalue of the
    even half block: the interior points 1..M, with the coupling into the
    midpoint scaled by sqrt2, bisected by one eig_sturm call.
    """
    arc = solve_dirichlet(L, eps, points_per_eps=points_per_eps)
    mid = (arc.u.n + 1) // 2
    op = linearized_operator(arc.u.values[1:mid + 1], (eps / arc.u.h) ** 2)
    op.offdiag[-1] *= SQRT2
    return float(eig_sturm(op, 1, tol=1e-10).eigenvalues[0])


def comparator_energy(config, eps):
    """Energy of the truncated-heteroclinic recovery profile g_k on the circle.

    Per arc: u = g(d/eps) chi(d) + (1 - chi(d)) in the distance d to the node
    set, with a smooth cos^2 ramp from 1 to 0 on [rho0/4, rho0/2], sampled
    at 200 points per eps and summed by Simpson's rule.

    Where d >= rho0/2, chi = chi' = 0, so u = 1.0 and the density
    0.5 eps u'^2 + W(u)/eps is exactly +0.0.  The profile is therefore
    evaluated only on the transition layers d < rho0/2, at most half of
    each grid, in place, with the operands of each product and sum in the
    order of the full-grid expressions; the sign d' = +-1 is dropped, as
    u'^2 does not see it.  The layer values go back into a zero density on
    the full grid, so Simpson's rule adds the same values in the same
    positions, and the energy keeps its bits.
    """
    lengths = config.arc_lengths()
    rho0 = float(np.min(lengths)) / 2.0
    lo, hi = rho0 / 4.0, rho0 / 2.0

    def arc_comparator(ell):
        """The comparator energy of one arc, from its layers' density."""
        m = max(2000, int(round(ell / (eps / 200))))
        m += m % 2
        x = np.linspace(0.0, ell, m + 1)
        h = x[1] - x[0]
        d = np.subtract(ell, x)
        np.minimum(x, d, out=d)
        del x
        layers = d < hi
        d = d[layers]
        g, du = heteroclinic(d / eps)[:2]
        chi, dchi = np.ones_like(d), np.zeros_like(d)
        ramp = d > lo
        s = 0.5 * math.pi * (d[ramp] - lo) / (hi - lo)
        del d
        cos = np.cos(s)
        chi[ramp] = cos ** 2
        dchi[ramp] = -math.pi * cos * np.sin(s) / (hi - lo)
        du /= eps
        du *= chi                    # gdot / eps chi
        u = g * chi
        np.subtract(1.0, chi, out=chi)
        u += chi                     # g chi + (1 - chi)
        g -= 1.0
        g *= dchi
        du += g                      # gdot / eps chi + (g - 1) chi' = +-u'
        del g, chi, dchi
        np.square(du, out=du)
        np.multiply(0.5 * eps, du, out=du)
        du += potential(u) / eps
        density = np.zeros(m + 1)
        density[layers] = du
        return simpson(density, h)

    total = 0.0
    for ell in lengths:
        total += arc_comparator(ell)
    return total


def gamma_sweep(config, eps_grid, points_per_eps=50):
    """BE over the distinct eps (at least two), first-order Richardson limit
    from the two smallest, comparator check.  Each given eps is checked
    (check_eps) before the distinct eps are counted."""
    eps_grid = sorted({check_eps(float(e)) for e in eps_grid})
    if len(eps_grid) < 2:
        raise DomainError("a gamma sweep needs at least two distinct eps")
    rows = []
    transitions = broken_transitions(((config, e) for e in eps_grid), points_per_eps)
    for e, bt in zip(eps_grid, transitions):
        comp = comparator_energy(config, e)
        rows.append({"eps": e, "be": bt.be, "comparator": comp,
                     "be_below_comparator": bool(bt.be <= comp + 1e-9)})
    (e2, b2), (e1, b1) = ((r["eps"], r["be"]) for r in rows[:2])  # two smallest
    limit = (e1 * b2 - e2 * b1) / (e1 - e2)
    # the energy of one full transition, int_{-1}^{1} sqrt(2 W) = 2 sigma0
    per_interface = 2.0 * well_constants().sigma0
    target = config.m * per_interface
    return {
        "rows": rows,
        "extrapolated_limit": limit,
        "per_interface_constant": per_interface,
        "limit_target": target,
        "limit_deviation": abs(limit - target),
    }


def index_table(p_list, eps_list, points_per_eps=100):
    """Morse-index rows (p, eps, BE and AC counts, v, c) with skip flags;
    DomainError when no row is admissible, rather than a claim on nothing,
    and before any row is solved when a p is not a positive integer or an
    eps is not positive and finite."""
    if len(p_list) != len(eps_list):
        raise DomainError(f"{len(p_list)} p values for {len(eps_list)} eps values")
    for p, e in zip(p_list, eps_list):
        if not (isinstance(p, numbers.Integral) and p >= 1):
            raise DomainError(f"p must be a positive integer, got {p!r}")
        check_eps(e)
    rows = []
    ok = True
    for p, e in zip(p_list, eps_list):
        thr = existence_threshold(1 / (2 * p))
        if e >= thr:
            rows.append({"p": p, "eps": e, "skipped": f"eps >= 1/(2 p pi) = {thr:.6g}"})
            continue
        sol = nodal_solution(p, e, points_per_eps=points_per_eps)
        rep = _hessian_of_arc(sol.arc, 2 * p)   # hessian's report, on the same arc
        ac = ac_spectrum(sol, how_many=2 * p + 3)
        row = {
            "p": p, "eps": e,
            "be_index": rep.index, "be_nullity": rep.nullity,
            "ac_index": ac.n_negative, "ac_nullity": ac.n_zero,
            "v": rep.v, "c": rep.c,
            "matches_theory": bool(
                rep.index == 2 * p - 1 and rep.nullity == 1
                and ac.n_negative == 2 * p - 1 and ac.n_zero == 1
            ),
        }
        ok = ok and row["matches_theory"]
        rows.append(row)
    if all("skipped" in row for row in rows):
        raise DomainError(f"no admissible row: every eps of {list(eps_list)} is at or "
                          f"above 1/(2 p pi) for its p of {list(p_list)}")
    return {"rows": rows, "all_match_S1MorseIndexTheorem": ok}
