import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from becircle import (CutoffSpec, DomainError, cutoff_energy,
                      cutoff_gradient_closed, min_energy, two_node_scan)
from oracles import cutoff_gradient_quadrature


def test_cutoff_spec_validation():
    with pytest.raises(DomainError):
        CutoffSpec(n=1, k=10.0, eps=0.1, delta=1e-2)
    with pytest.raises(DomainError):
        CutoffSpec(n=3, k=10.0, eps=0.1)        # delta required for n >= 3
    spec = CutoffSpec(n=2, k=100.0, eps=0.1)    # coupled delta automatic
    assert abs(spec.delta - 1.0 / (100.0 * math.log(100.0))) < 1e-15


@pytest.mark.parametrize("n, k, delta", [(400, 10.0, 1e-3), (200, 10.0, 100.0),
                                         (3, 1e300, 1e-3)])
def test_cutoff_overflow_is_a_domain_error(n, k, delta):
    # Gamma(200) of the sphere area, delta^n and r^2 on the ramp overflow
    # float64: the first two raised OverflowError, the last wrote a NaN energy
    # after two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            cutoff_energy(CutoffSpec(n=n, k=k, eps=0.1, delta=delta))


@pytest.mark.parametrize("k, eps", [(10.0, 1e-320), (1.0000000000001, 1e300)])
def test_cutoff_energy_past_float64_is_a_domain_error(k, eps):
    # the ball and ramp terms divide by eps, and the gradient term is
    # eps w radial / ln(k)^2: both wrote an infinite energy
    spec = CutoffSpec(n=3, k=k, eps=eps, delta=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            cutoff_energy(spec)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 343), log10_k_minus_1=st.floats(-14.0, 300.0),
       log10_eps=st.floats(-323.0, 308.0), log10_delta=st.floats(-323.0, 300.0))
@example(n=3, log10_k_minus_1=math.log10(9.0), log10_eps=-300.0, log10_delta=-3.0)
@example(n=3, log10_k_minus_1=-13.0, log10_eps=280.0, log10_delta=-3.0)
@example(n=3, log10_k_minus_1=100.0, log10_eps=-15.0, log10_delta=0.0)    # the ramp overflows
@example(n=120, log10_k_minus_1=-4.0, log10_eps=-1.0,                     # Simpson's sum does
         log10_delta=math.log10(366.6))
def test_a_cutoff_energy_is_finite_or_a_domain_error(n, log10_k_minus_1, log10_eps,
                                                     log10_delta):
    # with no warning, even where a term overflows float64
    k = 1.0 + 10.0 ** log10_k_minus_1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            energy = cutoff_energy(CutoffSpec(n=n, k=k, eps=10.0 ** log10_eps,
                                              delta=10.0 ** log10_delta))
        except DomainError:
            return
    assert math.isfinite(energy)


def test_cutoff_energy_n3_delta_limit():
    vals = [cutoff_energy(CutoffSpec(n=3, k=10.0, eps=0.1, delta=d))
            for d in (1e-2, 1e-3, 1e-4)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 1e-3


def test_cutoff_energy_n2_k_limit():
    vals = [cutoff_energy(CutoffSpec(n=2, k=k, eps=0.1))
            for k in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    # the paper-style bound eps*C~/ln k + C/(eps k ln k) dominates each value
    for k, v in zip((1e2, 1e4, 1e6), vals):
        lk = math.log(k)
        bound = 0.1 * (2 * math.pi) / lk + 2 * math.pi / (0.1 * k * lk)
        assert v <= bound * 1.01


def test_cutoff_gradient_closed_matches_quadrature():
    spec = CutoffSpec(n=2, k=100.0, eps=0.1, delta=1e-3)
    assert abs(cutoff_gradient_closed(spec)
               - cutoff_gradient_quadrature(spec)) < 1e-10


def test_two_node_scan():
    eps = 0.02
    scan = two_node_scan(eps, np.linspace(0.05, 0.95, 19))
    assert len(scan.dropped) == 2                     # 0.05 and 0.95
    assert np.all(scan.gap > 0.0)                     # BE > E(u_0)
    # symmetry BE({0,p}) = BE({0,1-p})
    for p, bp in zip(scan.p, scan.be):
        j = np.argmin(np.abs(scan.p - (1.0 - p)))
        assert abs(bp - scan.be[j]) < 1e-10
    # monotone decrease away from 1/2 toward the admissibility boundary
    left = scan.be[scan.p <= 0.5 + 1e-12]
    assert np.all(np.diff(left) >= -1e-12)            # increasing toward 1/2
    i9 = np.argmin(np.abs(scan.p - 0.9))
    i5 = np.argmin(np.abs(scan.p - 0.5))
    assert scan.be[i9] < scan.be[i5]
    # gap decreasing toward the boundary
    gaps_left = scan.gap[scan.p <= 0.5 + 1e-12]
    assert gaps_left[0] < gaps_left[-1]
    assert abs(scan.reference - min_energy(eps, 1.0)) < 1e-14
