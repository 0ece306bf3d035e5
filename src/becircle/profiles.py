"""Solutions of the linearized heteroclinic equation L f = f'' - W''(g) f = rhs
on the half-line, by variation of parameters, plus the lambda-direction pair
(kappa, tau_lambda, omega) and the constants sigma1, sigma2.

Variation of parameters writes f = r * gdot with
    r(t) = int_0^t gdot(s)^{-2} [a0 + int_0^s rhs*gdot] ds,
    a0   = -int_0^infty rhs*gdot,
and the bracket is always evaluated in its tail form -int_s^infty rhs*gdot:
the difference form loses every digit past s ~ 15 against the e^{2 sqrt2 s}
growth of gdot^{-2}.

The lambda direction requires care.  The pointwise derivative of the periodic
family along its conserved quantity, kappa(t), is an exact homogeneous
solution of L (it grows like e^{sqrt2 t}); the positive profile tau_lambda is
its negative, and the response profile omega solves L(omega) = 6 g tau_lambda
gdot.  omega is bounded, not decaying: omega(t) -> -3 sqrt2 / 4, and
omega'(0) = -2 exactly (by the self-adjoint pairing with g*gdot).  The slope
constant feeding the node Dirichlet-to-Neumann asymptotics is
    v(eps) ~ sqrt2 * lambda(eps) * omega'(0) / eps = -2 sqrt2 lambda / eps.

Every profile of one window (T, h) reads one half-line: the grid t of
n = round(T/h) steps with g, gdot and gddot on it, evaluated once and cached
for the last window asked for (`_halfline(T, n)`, one entry).  The entry also
keeps the results that other window functions read again: w and w', once
`profile_w` has solved them (kappa_ode reads w, and rho reads w' as its
source), and the four constants, once `profile_constants` has computed
them.  It holds four arrays of n + 1 floats (t, g, gdot and gddot), about
2.6 MB at 80001 points, and two more once w is solved (w's values and w';
w's rhs_values is the cached gdot): 3.8 MB at 80001 points and 12 MB at the
edge T ~ 251.2 with h = 1e-3.  All of them are read-only and are shared by
the profiles built on them, and `ode_residual` reads g from the half-line
of the profile's T and number of points.  The other profiles are solved on
every call.

A profile holds its values, its slope at 0 and its source, which is all
the second variation reads of it: w' is the one derivative on the grid
that is formed, once per window in `profile_w`.  The six profiles of a
cold default window, held together, keep 15 arrays of 40001 floats alive
under tracemalloc: the window's 4, w and w', rho's values, and the values
and source of each of the other four.

Every solve runs one variation-of-parameters core, `_vp_core`.
`profile_constants` builds no profile: sigma2 reads tau_geom's values from
the core, and w'(0) and omega'(0) are tail totals (`_tail_total`), so at its
peak it holds four arrays besides the window (tau_geom's source, r' and the
bracket or r, and `cumulative_simpson`'s scratch): 4.9 MiB at 80001 points,
window included.  A `spectral` bench pass evaluates `heteroclinic` 3 times
and runs the core 8 times; traced, it reports `profiles.calls` 21.  The
kernels work in place, with the operands in the order of the plain
expressions, so every result keeps its bits.

The window ends where gdot(T)^2 leaves the normal float64 range; past it
`bracket / gdot^2` loses every digit, so a longer T raises `DomainError`,
as does a window of more than 10^6 steps, before any array is built.
"""
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bvp_engine import cumulative_simpson, cumulative_simpson_last, simpson
from .errors import DomainError, TruncationError
from .scalar_field import SQRT2, heteroclinic, potential_d2

DEFAULT_T = 40.0
DEFAULT_H = 1e-3

# the T at which gdot(T)^2 ~ 8 exp(-2 sqrt2 T) reaches the smallest normal float
_T_UNDERFLOW = (math.log(8.0) - math.log(sys.float_info.min)) / (2.0 * SQRT2)
# the most steps a window may take: 8 MB per array.  The largest windows in
# use are the CLI's T = 251.19 at h = 1e-3 (251190 steps) and T = 160 at
# h = 5e-4 (320000)
_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class ProfileFunction:
    """A solution of L f = rhs on the uniform grid of [0, T] with f(0) = 0.

    values is f on the grid, slope0 = f'(0), and rhs_values is the source
    the profile solves for.  No profile carries f' on the grid: the one
    derivative a caller reads, w' for rho, is kept with the window.
    """
    T: float
    h: float
    values: np.ndarray
    slope0: float
    rhs_values: np.ndarray

    def grid(self):
        return np.linspace(0.0, self.T, len(self.values))


@dataclass(frozen=True)
class ProfileConstants:
    sigma1: float
    sigma2: float
    wdot0: float
    omegadot0: float


@dataclass(eq=False)
class _Window:
    """The cached entry of one window: its half-line (read-only arrays) and,
    once computed, w and the read-only w' (rho's source), the constants and
    the read-only W''(g) at the points [2h, T - 2h] that ode_residual reads."""
    t: np.ndarray
    h: float
    g: np.ndarray
    gdot: np.ndarray
    gddot: np.ndarray
    w: ProfileFunction = None
    wdot: np.ndarray = None
    constants: ProfileConstants = None
    w2_inner: np.ndarray = None


def _window(T, h):
    """`_halfline` of the uniform grid of [0, T] with the step nearest h that
    divides T; T may not pass `_T_UNDERFLOW`, nor its step count `_MAX_STEPS`."""
    n = int(round(T / h)) if h > 0 and math.isfinite(T / h) else 0
    if n < 2:
        raise DomainError(f"profile grid needs finite T >= 1.5 h > 0: T={T!r}, h={h!r}")
    if n > _MAX_STEPS:
        raise DomainError(f"profile window T={T!r}, h={h!r} takes {n} steps, "
                          f"more than {_MAX_STEPS}")
    if T > _T_UNDERFLOW:
        raise DomainError(f"profile window T={T!r} is past {_T_UNDERFLOW:.4f}, where "
                          "gdot(T)^2 leaves the normal float64 range")
    return _halfline(float(T), n)


def halfline(T=DEFAULT_T, h=DEFAULT_H):
    """The grid t and the heteroclinic g on it that every profile of the
    window (T, h) reads: read-only, and cached with the window."""
    line = _window(T, h)
    return line.t, line.g


@functools.lru_cache(maxsize=1)
def _halfline(T, n):
    """The `_Window` of t, the step, g, gdot and gddot on the grid of
    [0, T] with n steps.

    One entry is cached, so consecutive profile calls on one window evaluate
    `heteroclinic` once, and solve w and compute the constants at most once.
    The arrays are read-only, so no caller can change the cached entry.
    Callers pass T as a float, so 40 and 40.0 share an entry and the step is
    always a float.
    """
    t = np.linspace(0.0, T, n + 1)
    g, gdot, gddot = heteroclinic(t)
    for a in (t, g, gdot, gddot):
        a.setflags(write=False)
    return _Window(t, T / n, g, gdot, gddot)


def _exp_tail(rg, h):
    """int_T^infty rg, by analytic continuation of rg's exponential decay
    (rate fitted at the boundary); 0.0 where rg does not decay at T."""
    if rg[-1] != 0.0 and rg[-2] != 0.0 and 0.0 < rg[-1] / rg[-2] < 1.0:
        mu = math.log(rg[-2] / rg[-1]) / h
        return rg[-1] / mu
    return 0.0


def _tail_bracket(rhs_values, line):
    """rg = rhs*gdot and the bracket -int_s^infty rhs*gdot on the half-line
    `line` from `_halfline`, the first half of `_vp_core`.

    The truncated tail integral int_s^T rhs*gdot is closed by `_exp_tail`:
    without it the bracket loses all relative accuracy near T, which
    matters for sources that do not themselves decay.
    """
    h = line.h
    rg = rhs_values * line.gdot
    # int_s^T rhs*gdot accumulated from the right, keeping relative accuracy
    # where the integrand is exponentially small
    bracket = cumulative_simpson(rg[::-1], h)[::-1]
    bracket += _exp_tail(rg, h)
    np.negative(bracket, out=bracket)         # = -int_s^infty rhs*gdot
    return rg, bracket


def _tail_total(rg, h):
    """int_0^infty rg, the tail integral a profile's slope reads:
    -_tail_bracket(...)[1][0] bit for bit (the last running sum of the
    reversed Simpson pairs plus `_exp_tail`), without the bracket array."""
    return cumulative_simpson_last(rg[::-1], h) + _exp_tail(rg, h)


def _vp_core(rhs_values, line):
    """The tail-form variation-of-parameters core of L f = rhs on the
    half-line `line` from `_halfline`, which every profile solve runs; no
    decay guard.

    Returns r' = bracket / gdot^2, r = int_0^t r' and the slope
    f'(0) = bracket[0] / gdot[0], with the bracket from `_tail_bracket`;
    the profile is f = r gdot.  r' is formed in place in rhs*gdot's buffer,
    and the bracket is dropped before r is accumulated.
    """
    gdot = line.gdot
    rg, bracket = _tail_bracket(rhs_values, line)
    slope0 = bracket[0] / gdot[0]
    rprime = np.square(gdot, out=rg)
    np.divide(bracket, rprime, out=rprime)
    del bracket
    return rprime, cumulative_simpson(rprime, line.h), slope0


def _vp_solve(rhs_values, line):
    """The profile of L f = rhs from `_vp_core`: f = r gdot, formed in r's
    buffer, and r' is dropped."""
    _, values, slope0 = _vp_core(rhs_values, line)
    values *= line.gdot
    return ProfileFunction(T=line.t[-1], h=line.h, values=values, slope0=slope0,
                           rhs_values=rhs_values)


def solve_profile(rhs, T=DEFAULT_T, h=DEFAULT_H):
    """Unique decaying solution of L f = rhs with f(0) = 0.

    rhs may be a callable of t or an array on the uniform grid; either is
    read as a float array.  Data off the grid raise `TruncationError`, a
    non-finite value `DomainError`, and data that fail exponential decay at
    the truncation boundary `TruncationError`.  The grid and heteroclinic
    values come from the cached `_window(T, h)`: t is read-only, and a
    float64 array rhs is kept as given (for `profile_rho` it is the
    window's cached w').
    """
    line = _window(T, h)
    t = line.t
    rhs_values = np.asarray(rhs(t) if callable(rhs) else rhs, dtype=float)
    if rhs_values.shape != t.shape:
        raise TruncationError("rhs grid does not match the profile grid")
    _check_source(rhs_values, T)
    return _vp_solve(rhs_values, line)


def _check_source(rhs_values, T):
    """`solve_profile`'s guards on a source on the grid: every value finite,
    then `_check_decay`."""
    if not np.isfinite(rhs_values).all():
        raise DomainError("rhs has a non-finite value on the profile grid")
    _check_decay(rhs_values, T)


def _check_decay(rhs_values, T):
    """`solve_profile`'s decay guard: |rhs(T)| may not pass 1e-6."""
    if abs(rhs_values[-1]) > 1e-6:
        raise TruncationError(
            f"rhs({T}) = {rhs_values[-1]:.3e} fails the decay requirement"
        )


def profile_w(T=DEFAULT_T, h=DEFAULT_H):
    """L w = gdot; the mean-curvature response profile.  w'(0) = -2/3.

    Solved once per window, through `solve_profile`'s guards, and kept with
    the window, with w' = r' gdot + r gddot from the same core call, which
    rho reads as its source: both read-only until the window leaves the
    cache.  The operands are in the order of w = r gdot and that w'.
    """
    line = _window(T, h)
    if line.w is None:
        gdot = line.gdot
        _check_source(gdot, T)
        wdot, r, slope0 = _vp_core(gdot, line)
        values = r * gdot
        wdot *= gdot
        r *= line.gddot
        wdot += r
        for a in (values, wdot):
            a.setflags(write=False)
        line.w = ProfileFunction(T=line.t[-1], h=line.h, values=values, slope0=slope0,
                                 rhs_values=gdot)
        line.wdot = wdot
    return line.w


def profile_rho(T=DEFAULT_T, h=DEFAULT_H):
    """L rho = wdot, consuming the window's w'."""
    profile_w(T, h)
    return solve_profile(_window(T, h).wdot, T, h)


def profile_tau_geom(T=DEFAULT_T, h=DEFAULT_H):
    """L tau = t gdot; the geometric tau of the curvature expansion."""
    line = _window(T, h)
    return solve_profile(line.t * line.gdot, T, h)


def profile_kappa_ode(T=DEFAULT_T, h=DEFAULT_H):
    """L kappa = g w, consuming the computed w profile."""
    return solve_profile(_window(T, h).g * profile_w(T, h).values, T, h)


def _kappa(t, g, gdot):
    """kappa_lambda, the pointwise derivative of the periodic family along
    lambda at lambda = 0, from the heteroclinic values g, gdot at t.

    Stable rewriting of  -2 (1-g^2) int_0^g dx/(1-x^2)^3  using
    log((1+g)/(1-g)) = sqrt2 t:
        kappa(t) = -(1/8) [ 2 g (5 - 3 g^2) / (1 - g^2) + 3 sqrt2 t (1 - g^2) ].
    kappa(0) = 0, kappa < 0 for t > 0, kappa'(0) = -sqrt2, and L kappa = 0
    (it is the growing homogeneous partner of gdot).
    """
    s = SQRT2 * gdot    # sech^2(t/sqrt2), underflow-safe
    # -(2 g (5 - 3 g g) / s + 3 sqrt2 t s) / 8, in place in two arrays
    # besides s, with the operands in the order of that expression
    out = np.multiply(2.0, g)
    b = np.multiply(3.0, g)
    b *= g
    np.subtract(5.0, b, out=b)
    out *= b
    out /= s
    np.multiply(3.0 * SQRT2, t, out=b)
    b *= s
    out += b
    np.negative(out, out=out)
    out /= 8.0
    return out


def profile_tau_lambda(T=DEFAULT_T, h=DEFAULT_H):
    """The positive lambda-direction profile tau_lambda = -kappa_lambda.

    An exact homogeneous solution of L (rhs = 0) with tau(0) = 0 and
    tau'(0) = sqrt2.  It grows like e^{sqrt2 t}/8: the lambda direction of
    the periodic family is inherently non-decaying toward the far node.
    """
    line = _window(T, h)
    t, g, gdot = line.t, line.g, line.gdot
    vals = _kappa(t, g, gdot)
    np.negative(vals, out=vals)
    return ProfileFunction(T=t[-1], h=line.h, values=vals, slope0=SQRT2,
                           rhs_values=np.zeros_like(vals))


def profile_omega(T=DEFAULT_T, h=DEFAULT_H):
    """Bounded solution of L omega = 6 g tau_lambda gdot with omega(0) = 0.

    The source tends to the constant 3 sqrt2 / 2 (no decay), but every
    variation-of-parameters integral converges in tail form; the profile is
    bounded with omega(t) -> -3 sqrt2 / 4 and omega'(0) = -2 exactly.
    """
    line = _window(T, h)
    return _vp_solve(_omega_source(line), line)


def _omega_source(line):
    """omega's source 6 g tau_lambda gdot on the half-line `line`, formed in
    place with the operands in the order of that product."""
    g, gdot = line.g, line.gdot
    tau_lambda = _kappa(line.t, g, gdot)
    np.negative(tau_lambda, out=tau_lambda)
    src = np.multiply(6.0, g)
    src *= tau_lambda
    src *= gdot
    return src


def profile_constants(T=DEFAULT_T, h=DEFAULT_H):
    """sigma1, sigma2 by composite Simpson, and the response slopes w'(0)
    and omega'(0); computed once per window and kept with it.

    sigma2 reads tau_geom's values, r gdot from `_vp_core`, through
    `solve_profile`'s guards on tau_geom's source.  Each slope is read from
    its source's tail integral alone, -`_tail_total` / gdot[0]: the value
    `profile_w` and `profile_omega` report as slope0, bit for bit, without
    solving either profile.  The window's w is left as it is.  w's decay
    guard is still applied: tau_geom's source t*gdot is below gdot only on
    windows T < 1, where the two guards differ.
    """
    line = _window(T, h)
    if line.constants is None:
        hh, gdot = line.h, line.gdot
        sigma1 = _sigma1(line)
        sigma2 = _sigma2(line, T)
        _check_decay(gdot, T)
        wdot0 = -_tail_total(gdot * gdot, hh) / gdot[0]
        rg = _omega_source(line)
        rg *= gdot
        line.constants = ProfileConstants(sigma1=sigma1, sigma2=sigma2, wdot0=wdot0,
                                          omegadot0=-_tail_total(rg, hh) / gdot[0])
    return line.constants


def _sigma1(line):
    """int t gdot gddot by composite Simpson, its integrand formed in place."""
    integrand = line.t * line.gdot
    integrand *= line.gddot
    return simpson(integrand, line.h)


def _sigma2(line, T):
    """6 int tau_geom g gdot^2 by composite Simpson, from tau_geom's values
    alone: the source t*gdot passes `solve_profile`'s guards, and the
    integrand is formed in place in r's buffer, with the operands in the
    order of tau_geom.values * g * gdot**2."""
    gdot = line.gdot
    src = line.t * gdot
    _check_source(src, T)
    rprime, integrand, _ = _vp_core(src, line)
    integrand *= gdot                         # tau_geom's values
    integrand *= line.g
    integrand *= np.square(gdot, out=rprime)
    return 6.0 * simpson(integrand, line.h)


def ode_residual(profile, t_max=None):
    """Sup norm of f'' - W''(g) f - rhs by fourth-order central differences.

    Restricted to t <= t_max when given (the growing tau_lambda only admits
    an absolute residual bound on a bounded window); a window without an
    interior grid point (t_max NaN or below 2h) raises `DomainError`.
    """
    f = profile.values
    h = profile.h
    if len(f) < 5:
        raise DomainError(f"a profile of {len(f)} points has no grid point in [2h, T - 2h]")
    # the profile's own half-line: a cache hit while its window is the last
    line = _halfline(float(profile.T), len(f) - 1)
    t, g = line.t, line.g
    # in place in two arrays, with the operands in the order of
    # (-f[4:] + 16 f[3:-1] - 30 f[2:-2] + 16 f[1:-3] - f[:-4]) / (12 h^2)
    # - W''(g) f - rhs; W''(g) is computed once per window
    res = np.negative(f[4:])
    term = np.multiply(16.0, f[3:-1])
    res += term
    res -= np.multiply(30.0, f[2:-2], out=term)
    res += np.multiply(16.0, f[1:-3], out=term)
    res -= f[:-4]
    res /= 12.0 * h * h
    if line.w2_inner is None:
        line.w2_inner = potential_d2(g[2:-2])
        line.w2_inner.setflags(write=False)
    res -= np.multiply(line.w2_inner, f[2:-2], out=term)
    res -= profile.rhs_values[2:-2]
    if t_max is not None:
        res = res[t[2:-2] <= t_max]
    if res.size == 0:
        raise DomainError(f"no grid point of [2h, T - 2h] lies at t <= t_max={t_max!r}")
    return float(np.max(np.abs(res, out=res)))
