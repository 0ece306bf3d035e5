import math

import numpy as np
from hypothesis import given, strategies as st

from becircle import heteroclinic, potential, potential_d1, potential_d2, well_constants

SQRT2 = math.sqrt(2.0)


def test_potential_values():
    assert potential(1.0) == 0.0
    assert potential(-1.0) == 0.0
    assert potential(0.0) == 0.25
    assert potential_d2(0.0) == -1.0   # direct differentiation of (1-u^2)^2/4
    assert potential_d1(0.0) == 0.0


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_potential_even(u):
    assert potential(u) == potential(-u)


def test_derivatives_match_finite_differences():
    u = np.linspace(-2.0, 2.0, 101)
    d = 1e-5
    fd1 = (potential(u + d) - potential(u - d)) / (2 * d)
    fd2 = (potential(u + d) - 2 * potential(u) + potential(u - d)) / d**2
    assert np.max(np.abs(fd1 - potential_d1(u))) < 1e-8
    assert np.max(np.abs(fd2 - potential_d2(u))) < 1e-5


def test_heteroclinic_at_origin():
    g, gdot, gddot = heteroclinic(0.0)
    assert g == 0.0
    assert abs(gdot - 0.7071067811865476) < 1e-15
    assert gddot == 0.0


def test_heteroclinic_solves_ode():
    for t in (-3.0, -1.0, 0.0, 1.0, 3.0):
        g, _, gddot = heteroclinic(t)
        assert abs(gddot - potential_d1(g)) < 1e-12


def test_heteroclinic_structure():
    t = np.linspace(-8.0, 8.0, 401)
    g, gdot, _ = heteroclinic(t)
    assert np.max(np.abs(g + heteroclinic(-t)[0])) == 0.0        # odd
    assert np.all(np.diff(g) > 0)                                # increasing
    assert np.all(np.abs(g) < 1.0)
    assert np.max(np.abs(gdot - (1 - g * g) / SQRT2)) < 1e-12


def test_heteroclinic_large_t_no_underflow():
    # 1 - tanh^2 underflows near t = 26; the sech form must not
    _, gdot, _ = heteroclinic(35.0)
    assert gdot > 0.0


def test_well_constants():
    wc = well_constants()
    assert abs(wc.sigma0 - SQRT2 / 3.0) < 1e-12
    assert abs(wc.sigma - 1.0 / SQRT2) < 1e-12
    g, _, _ = heteroclinic(wc.kappa0)
    assert abs(3.0 * g * g - 1.0) < 1e-10
    assert abs(wc.kappa0 - 0.93123) < 1e-4
    # the root of 3 tanh^2(t/sqrt2) - 1 by bisection, independent of the
    # closed form the package uses
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 3.0 * math.tanh(mid / SQRT2) ** 2 < 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(wc.kappa0 - 0.5 * (lo + hi)) < 1e-12


def test_sigma0_by_quadrature():
    from becircle import simpson
    t = np.linspace(0.0, 40.0, 40001)
    gdot = heteroclinic(t)[1]
    assert abs(simpson(gdot**2, t[1] - t[0]) - SQRT2 / 3.0) < 1e-10
