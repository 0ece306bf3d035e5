"""Closed-form periodic solutions of the rescaled equation u'' = W'(u).

The family  g(x, k) = k sqrt(2/(1+k^2)) sn(x / sqrt(1+k^2), k)  provides an
analytic oracle for every grid solver in the package, together with the
eps <-> lambda correspondence of the conserved quantity.

The modulus is the complementary modulus kp = sqrt(1-k^2), a float:
`modulus_for` returns it and `ac_family_mod` takes it, so that moduli
exponentially close to 1 (the interesting regime) keep full relative
accuracy; k itself rounds to 1.0 in double precision long before the
underlying solution family degenerates.  `modulus_for` finds kp by
bisection on ln kp, seeded by secant steps: the spacing is evaluated only
inside a window around the crossing that the secant steps locate, and every
bisection step outside it takes the branch its side dictates, so the result
is the full bisection's bit for bit.

`ac_family_mod` takes a float or a numpy array of abscissae and tells them
apart once; an abscissa of another real type (an int, a float32) is
divided by the scale in float64, so every step runs in float64.  What
depends on the modulus alone is built once per modulus and cached
(`_landen_plan`): K, 2K and 4K, the scale sqrt(1+k^2) = sqrt(2 - kp^2), the
amplitude, and the descending Landen chain, as the descent's divisors and
the ascent's steps, without its identity levels (k <= 2^-53, where a step
returns its operand bit for bit; 3-13 levels are left at L/eps 3.2-1950).
A float call is then one cache lookup and the arithmetic: the fold into
[0, K] inline and the descent, sin and ascent in `_sn`, through `math`,
returning a float (for a numpy float64 too).  An array runs the same
operations through numpy (`_fold`, `_sn_array`).  The family reads sn only,
and the ascent of sn reads neither cn nor dn, so only sn is computed.  Both
paths do the same arithmetic in the same order, and numpy's float64 sin
rounds as `math`'s does, so an array result equals the per-element scalar
calls bit for bit (the tests check this).  For a k-parameterized K, sn, cn
and dn at moderate k use `scipy.special.ellipk` and `ellipj`; the k = 1
limit is `scalar_field.heteroclinic`.
"""
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoPositiveSolution

SQRT2 = math.sqrt(2.0)

_IDENTITY_K = 2.0 ** -53   # half an ulp of 1.0: 1.0 + k rounds to 1.0
_LANDEN_CAP = 32


def _agm(a, b):
    """Arithmetic-geometric mean; handles b many orders below a.

    Near the limit a and b can settle one ulp apart, where a step reproduces
    them; that fixed point ends the loop as the relative test does.
    """
    for _ in range(80):
        if abs(a - b) <= 1e-16 * a:
            break
        a_next, b_next = 0.5 * (a + b), math.sqrt(a * b)
        if a_next == a and b_next == b:
            break
        a, b = a_next, b_next
    return 0.5 * (a + b)


def _complete_K_from_kp(kp):
    if not 0.0 < kp <= 1.0:
        raise DomainError(f"complementary modulus must lie in (0, 1], got {kp}")
    return math.pi / (2.0 * _agm(1.0, kp))


def _amplitude_from_kp(kp):
    return math.sqrt((1.0 - kp) * (1.0 + kp)) * SQRT2 / math.sqrt(2.0 - kp * kp)


class _LandenPlan(NamedTuple):
    K: float
    two_K: float      # sn(x + 2K) = -sn(x) and sn(2K - x) = sn(x)
    four_K: float     # the period of sn
    scale: float      # sqrt(2 - kp^2) = sqrt(1 + k^2): the family's x = scale t
    amplitude: float  # k sqrt(2/(1+k^2)), the family's max
    descent: tuple    # 1 + k_j, j = 1, 2, ..., the descent's divisors
    ascent: tuple     # (k_j, 1 + k_j) from the last level j up to j = 1


# typed: a numpy float64 kp gets a plan of numpy scalars, a float kp of floats
@functools.lru_cache(maxsize=64, typed=True)
def _landen_plan(kp):
    """What ac_family_mod reads of the modulus: K and its multiples, the
    family's scale and amplitude, and the descending Landen chain at
    complementary modulus kp in (0, 1], in the order each pass reads it.

    Level j+1 from level j:  k_{j+1} = (1 - kp_j) / (1 + kp_j), until
    k <= 2^-53, where 1 + k and 1 + k s^2 (|s| <= 1) round to 1.0: that
    level's descent and ascent steps would return their operand bit for
    bit, so it is left out (at kp = 1 the chain is empty).  The complement
    is tracked through 1 - k_{j+1} = 2 kp_j / (1 + kp_j) to avoid
    cancellation when kp_j is tiny.
    """
    K = _complete_K_from_kp(kp)
    levels, kp_j = [], kp
    for _ in range(_LANDEN_CAP):
        k_next = (1.0 - kp_j) / (1.0 + kp_j)
        if k_next <= _IDENTITY_K:
            break
        levels.append((k_next, 1.0 + k_next))
        one_minus = 2.0 * kp_j / (1.0 + kp_j)
        kp_j = math.sqrt(one_minus * (1.0 + k_next))
    # the descent from a list: tuple() over a generator grows and shrinks its
    # buffer, and as a sweep's moduli turn the cache over, those buffers
    # fragment the heap (the arc-sweeps benchmark's peak RSS grew with its
    # pass count)
    return _LandenPlan(K, 2.0 * K, 4.0 * K, math.sqrt(2.0 - kp * kp),
                       _amplitude_from_kp(kp),
                       tuple([one_plus_k for _, one_plus_k in levels]),
                       tuple(reversed(levels)))


def _sn(u, descent, ascent):
    """Jacobi sn at a float u by the Landen descent and ascent of a plan:
    sin(u) when its chain is empty (k = 0)."""
    for one_plus_k in descent:
        u = u / one_plus_k
    s = math.sin(u)
    for k, one_plus_k in ascent:
        s = one_plus_k * s / (1.0 + k * s * s)
    return s


def _sn_array(x, descent, ascent):
    """_sn over an array x, in two new buffers: the descent and the ascent
    run in place, with the operands in the order of _sn's expressions, so
    the bits are its."""
    s = np.divide(x, descent[0]) if descent else np.array(x, dtype=np.float64)
    for one_plus_k in descent[1:]:
        s /= one_plus_k
    np.sin(s, out=s)
    den = np.empty_like(s)
    for k, one_plus_k in ascent:
        # one_plus_k * s / (1.0 + k * s * s)
        np.multiply(k, s, out=den)
        den *= s
        np.add(1.0, den, out=den)
        np.multiply(one_plus_k, s, out=s)
        s /= den
    return s


def _fold(x, plan):
    """Reduce an array x into [0, K] by sn(x + 2K) = -sn(x) and
    sn(2K - x) = sn(x), as ac_family_mod's scalar path does a float.

    Returns (x, flip_s), sn(x_in) = flip_s sn(x).
    """
    x = np.fmod(x, plan.four_K)
    x = np.where(x < 0, x + plan.four_K, x)
    upper = x > plan.two_K
    x = np.where(upper, x - plan.two_K, x)
    x = np.where(x > plan.K, plan.two_K - x, x)
    return x, np.where(upper, -1.0, 1.0)


@dataclass(frozen=True)
class LambdaEpsPair:
    eps: float
    lam: float        # conserved quantity, in (0, 1/4)
    amplitude: float  # max of the solution


def zero_spacing_from_kp(kp):
    """Distance between consecutive zeros of the family: 2 K(k) sqrt(1+k^2)."""
    return 2.0 * _complete_K_from_kp(kp) * math.sqrt(2.0 - kp * kp)


def ac_family_mod(x, kp):
    """The family g(x, k) = k sqrt(2/(1+k^2)) sn(x / sqrt(1+k^2), k) at the
    complementary modulus kp = sqrt(1 - k^2), the float modulus_for returns,
    computed through kp so it stays accurate as k -> 1.

    x is a float or an array; one call evaluates a whole grid.  A float x
    (a numpy float64 too) is folded into [0, K] as _fold folds an array,
    with the same operations, and gives a float.  Any other real x, an int,
    a float32 scalar or array, a 0-d array, is divided by the scale in
    float64 (a float32 at its exact value), so that no fold or Landen step
    runs in a narrower type; a 0-d array then takes the float path.
    """
    plan = _landen_plan(kp)
    K, two_K, four_K, scale, amplitude, descent, ascent = plan
    if isinstance(x, float):
        t = x / scale
    else:
        t = np.divide(x, scale, dtype=np.float64)
        if isinstance(t, np.ndarray):
            t, flip_s = _fold(t, plan)
            return flip_s * amplitude * _sn_array(t, descent, ascent)
    t = math.fmod(t, four_K)
    if t < 0:
        t += four_K
    flip_s = 1.0
    if t > two_K:
        t -= two_K
        flip_s = -1.0
    if t > K:
        t = two_K - t
    return flip_s * amplitude * _sn(t, descent, ascent)


_KP_FLOOR = 1e-300
_Y_FLOOR, _Y_CEIL = math.log(_KP_FLOOR), -1e-18  # ln kp in (ln 1e-300, ~0)
_SPACING_AT_FLOOR = zero_spacing_from_kp(math.exp(_Y_FLOOR))
# zero_spacing_from_kp is within 8 ulps of the exact spacing at its argument
# (the tests check this against mpmath), and exp and the exact spacing are
# monotone, so a computed excess over the target beyond _MARGIN_ULPS ulps of
# the target at a window end fixes the sign of every computed excess beyond
# that end.  The window reaches _WINDOW_ULPS ulps of y or of the target to
# each side, which the spacing's slope |dZ/dy| >= 2 sqrt2 turns into an
# excess of about 180 ulps of the target at its ends.
_WINDOW_ULPS = 64
_MARGIN_ULPS = 64


def _crossing_window(target):
    """An interval (a, b) of y = ln kp outside which the sign of the computed
    zero_spacing_from_kp(exp(y)) - target is known without evaluating it:
    positive for y < a, negative for y > b.

    Secant steps in y, started from the floor and the kp -> 0 asymptote
    Z = 2 sqrt2 (ln 4 - y) and kept inside the bracket they build, locate the
    crossing to a small fraction of the window; two evaluations then confirm
    the window with a margin.  When they do not, (floor, ceiling) is
    returned, which leaves every bisection step to be evaluated.
    """
    def excess(y):
        return zero_spacing_from_kp(math.exp(y)) - target

    def half_width(y):
        return _WINDOW_ULPS * max(math.ulp(y), math.ulp(target))

    lo, hi = _Y_FLOOR, _Y_CEIL
    y_old, f_old = lo, _SPACING_AT_FLOOR - target
    y = min(math.log(4.0) - target / (2.0 * SQRT2), hi)
    f = excess(y)
    for _ in range(12):
        if f > 0:
            lo = y
        else:
            hi = y
        if f == f_old:
            break
        y_new = y - f * (y - y_old) / (f - f_old)
        if abs(y_new - y) <= half_width(y) / 16.0:
            break
        if not lo < y_new < hi:
            y_new = 0.5 * (lo + hi)
        y_old, f_old, y = y, f, y_new
        f = excess(y)
    a, b = y - half_width(y), y + half_width(y)
    margin = _MARGIN_ULPS * math.ulp(target)
    if ((a <= _Y_FLOOR or excess(a) > margin)
            and (b >= _Y_CEIL or excess(b) < -margin)):
        return a, b
    return _Y_FLOOR, _Y_CEIL


def modulus_for(eps, L):
    """Complementary modulus kp (a float) whose zero spacing matches the
    rescaled interval length L/eps.

    Monotone bisection on ln(kp), so that complementary moduli exponentially
    close to 0 (k -> 1) retain relative accuracy, run from (ln 1e-300, -1e-18)
    down to adjacent doubles.  A secant-seeded window around the crossing
    (_crossing_window) settles every bisection step that falls outside it
    without evaluating the spacing, so only the steps inside the window run
    an AGM: 11-36 evaluations per call for L/eps in [3.1416, 1950] instead
    of 53-83, with the bisection's result bit for bit.
    """
    if not (eps > 0 and L > 0):
        raise DomainError(f"eps and L must be positive, got eps={eps}, L={L}")
    if eps >= L / math.pi:
        raise NoPositiveSolution(
            f"eps={eps} at or above the existence threshold {L / math.pi}"
        )
    target = L / eps
    if _SPACING_AT_FLOOR < target:
        raise DomainError("rescaled length beyond representable moduli")
    a, b = _crossing_window(target)
    lo, hi = _Y_FLOOR, _Y_CEIL
    # zero_spacing decreases in kp: keep spacing(lo) > target >= spacing(hi);
    # once mid rounds onto an end, lo and hi are adjacent doubles and every
    # further step would leave them unchanged
    for _ in range(140):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid < a or (mid <= b and zero_spacing_from_kp(math.exp(mid)) > target):
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def lambda_of_eps(eps, L):
    """Conserved quantity and amplitude of the positive arch on [0, L].

    lam = W(amplitude) evaluated through kp, avoiding the 1 - amplitude^2
    cancellation:  1 - amp^2 = kp^2 / (1 + k^2).  lam ~ 16 e^{-sqrt2 L/eps}
    underflows float64 near L/eps = 503, so a lam that is not a normal number
    raises DomainError instead of being returned as a subnormal or a zero.
    """
    kp = modulus_for(eps, L)
    one_plus_k2 = 2.0 - kp * kp
    one_minus_amp2 = kp * kp / one_plus_k2
    lam = one_minus_amp2 * one_minus_amp2 / 4.0
    if not lam >= np.finfo(float).tiny:
        raise DomainError(
            f"lambda {lam:.3g} at L/eps = {L / eps:.6g} is not a normal float64 "
            "(underflow)"
        )
    return LambdaEpsPair(eps=eps, lam=lam, amplitude=_amplitude_from_kp(kp))
