"""Double-well potential, heteroclinic profile, and the universal constants.

Everything downstream (grid solvers, elliptic closed forms, profile ODEs)
refers back to these few closed forms.  Derivatives are analytic throughout
so that Newton iterations stay quadratically convergent.
"""
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


def potential(u):
    """W(u) = (1 - u^2)^2 / 4, minimized at the pure phases u = +-1."""
    return (1.0 - u * u) ** 2 / 4.0


def potential_d1(u):
    """W'(u) = u^3 - u."""
    return u ** 3 - u


def potential_d2(u):
    """W''(u) = 3 u^2 - 1."""
    return 3.0 * u * u - 1.0


def heteroclinic(t):
    """The standing wave g(t) = tanh(t / sqrt 2) with its first two derivatives.

    Returns (g, gdot, gddot).  Accepts scalars or arrays.  sech^2 is formed
    from cosh directly: 1 - tanh^2 underflows to zero already near t = 26,
    far inside the default profile windows.  On an array, sech^2 is formed
    in t / sqrt2's buffer, gdot from it, and then gddot = -(sech^2 g) in its
    place; the product commutes and the negation is exact, so the bits are
    those of the scalar expressions.  The only arrays built are the three
    returned.  gddot, not gdot, takes the buffer: a caller that keeps g and
    gdot only (the recovery comparator) drops that buffer as before, and its
    heap use does not move.
    """
    s = np.asarray(t, dtype=float) / SQRT2
    g = np.tanh(s)
    if np.ndim(t) == 0:
        sech2 = 1.0 / np.cosh(s) ** 2
        return float(g), float(sech2 / SQRT2), float(-g * sech2)
    sech2 = np.cosh(s, out=s)
    np.square(sech2, out=sech2)
    np.divide(1.0, sech2, out=sech2)
    gdot = sech2 / SQRT2
    gddot = np.multiply(sech2, g, out=sech2)
    np.negative(gddot, out=gddot)
    return g, gdot, gddot


@dataclass(frozen=True)
class WellConstants:
    sigma0: float   # integral of gdot^2 over the half-line
    sigma: float    # gdot(0)
    kappa0: float   # positive root of W''(g(t)) = 0, rescaled length units


def well_constants():
    """Closed-form sigma0, sigma and the root kappa0 of W''(g(t)) = 0.

    W''(g) = 3 g^2 - 1 vanishes at g = tanh(t / sqrt2) = 1/sqrt3.
    """
    return WellConstants(
        sigma0=SQRT2 / 3.0,
        sigma=1.0 / SQRT2,
        kappa0=SQRT2 * math.atanh(1.0 / math.sqrt(3.0)),
    )
