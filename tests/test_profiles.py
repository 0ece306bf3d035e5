import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import becircle.profiles as profiles_mod
from becircle import (DomainError, ProfileFunction, TruncationError,
                      cumulative_simpson, heteroclinic, lambda_of_eps, modulus_for,
                      ode_residual, potential_d2, profile_constants,
                      profile_kappa_ode, profile_omega, profile_rho,
                      profile_tau_geom, profile_tau_lambda, profile_w, simpson,
                      solve_profile)
from becircle.elliptic_oracle import ac_family_mod
from oracles import chebyshev_profile, kappa_lambda, kappa_lambda_prime

SQRT2 = math.sqrt(2.0)


def test_solve_profile_zero_rhs():
    p = solve_profile(lambda t: np.zeros_like(t))
    assert np.max(np.abs(p.values)) == 0.0
    assert p.slope0 == 0.0


@pytest.mark.parametrize("rhs", [lambda t: 0.0, lambda t: [0.0, 0.0]],
                         ids=["scalar", "short-list"])
def test_solve_profile_rejects_a_callable_off_the_grid(rhs):
    with pytest.raises(TruncationError, match="does not match"):
        solve_profile(rhs, T=20.0)


def test_solve_profile_reads_a_list_valued_callable_as_an_array():
    ref = solve_profile(lambda t: t * heteroclinic(t)[1], T=20.0)
    p = solve_profile(lambda t: list(t * heteroclinic(t)[1]), T=20.0)
    assert p.values.tobytes() == ref.values.tobytes() and p.slope0 == ref.slope0


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", [0, 1000, -1])
def test_solve_profile_rejects_a_non_finite_source(bad, where):
    def rhs(t):
        v = t * heteroclinic(t)[1]
        v[where] = bad
        return v

    with pytest.raises(DomainError, match="non-finite"):
        solve_profile(rhs, T=20.0)


def test_solve_profile_keeps_an_array_source():
    t, _ = profiles_mod.halfline(T=20.0)
    rhs = t * heteroclinic(t)[1]
    assert solve_profile(rhs, T=20.0).rhs_values is rhs
    line = profiles_mod._window(20.0, 1e-3)
    assert profile_w(T=20.0).rhs_values is line.gdot


def test_solve_profile_rejects_nondecaying_rhs():
    with pytest.raises(TruncationError):
        solve_profile(lambda t: np.ones_like(t))
    # the closed-form lambda derivative grows exponentially: the spec chain
    # tau_lambda = solve_profile(kappa_lambda) violates its own decay contract
    with pytest.raises(TruncationError):
        solve_profile(lambda t: kappa_lambda(t))


def test_solve_profile_alpha_identity():
    # rhs = g gdot^2 has the closed-form solution -(1/(3 sqrt2)) g gdot
    p = solve_profile(lambda t: heteroclinic(t)[0] * heteroclinic(t)[1] ** 2)
    t = p.grid()
    g, gd, _ = heteroclinic(t)
    assert np.max(np.abs(p.values + g * gd / (3 * SQRT2))) < 1e-7


def test_profile_w():
    w = profile_w()
    assert w.values[0] == 0.0
    assert abs(w.values[-1]) < 1e-8
    assert abs(w.slope0 + 2.0 / 3.0) < 1e-7
    assert ode_residual(w) < 1e-6


def test_profile_rho_kappa_ode_residuals():
    for prof in (profile_rho(), profile_kappa_ode()):
        assert prof.values[0] == 0.0
        assert abs(prof.values[-1]) < 1e-8
        assert ode_residual(prof) < 1e-6


PROFILES = (profile_w, profile_rho, profile_tau_geom, profile_kappa_ode,
            profile_tau_lambda, profile_omega)


@pytest.mark.parametrize("T", [12, 14, 16, 20, 40])
@pytest.mark.parametrize("profile", PROFILES, ids=lambda f: f.__name__)
def test_decays_follows_its_definition(profile, T):
    # every profile accepts the same T: only a source above the decay guard
    # at T raises
    if profile is profile_tau_geom and T == 12:
        # its source t*gdot is still 1.4e-6 at T = 12, above the decay guard
        with pytest.raises(TruncationError):
            profile(T=T)
        return
    profile(T=T)


def test_constants_keep_the_short_window_guard():
    # tau_geom's source t*gdot is above the decay guard at T = 12; the
    # constants solve tau_geom and raise its error
    with pytest.raises(TruncationError, match=r"rhs\(12\.0\) = 1\.447e-06 fails"):
        profile_constants(T=12.0)
    # below T = 1 w's source gdot fails its guard first
    with pytest.raises(TruncationError, match="7.071e-01 fails"):
        profile_constants(T=1e-6, h=5e-7)


def test_every_profile_reports_the_window_end():
    ends = [fn(T=40).T for fn in PROFILES]
    assert all(T == 40.0 and type(T) is np.float64 for T in ends)


@pytest.mark.parametrize("profile", [profile_rho, profile_kappa_ode],
                         ids=lambda f: f.__name__)
def test_rho_kappa_ode_truncation_range(profile):
    # they pass solve_profile's decay guard on their own source, which is
    # still above 1e-6 at T = 11 and 11.5 (w itself is rejected at 10.5)
    for T in (10.5, 11, 11.5):
        with pytest.raises(TruncationError):
            profile(T=T)
    p = profile(T=12)
    assert p.T == 12 and p.values[0] == 0.0


def test_profile_tau_geom():
    tau = profile_tau_geom()
    assert tau.values[0] == 0.0
    assert abs(tau.values[-1]) < 1e-8
    assert ode_residual(tau) < 1e-6
    # slope0 = a0 / gdot(0) with a0 = -int t gdot^2 by independent quadrature
    t = tau.grid()
    gd = heteroclinic(t)[1]
    a0 = -simpson(t * gd * gd, tau.h)
    assert abs(tau.slope0 - a0 * SQRT2) < 1e-7


def test_tau_geom_self_adjoint_cross_check():
    tau = profile_tau_geom()
    t = tau.grid()
    g, gd, _ = heteroclinic(t)
    alpha = -g * gd / (3 * SQRT2)
    lhs = simpson(tau.values * g * gd ** 2, tau.h)
    rhs = simpson(t * gd * alpha, tau.h)
    assert abs(lhs - rhs) < 1e-7


def test_kappa_lambda_closed_form():
    assert kappa_lambda(0.0) == 0.0
    assert kappa_lambda(1.0) < 0.0
    t = np.linspace(0.1, 12.0, 200)
    assert np.all(kappa_lambda(t) < 0.0)
    assert abs(kappa_lambda_prime(0.0) + SQRT2) < 1e-12
    # kappa agrees with its defining integral -2(1-g^2) int_0^g (1-x^2)^-3
    for tt in (0.5, 1.0, 2.0):
        g = heteroclinic(tt)[0]
        x = np.linspace(0.0, g, 20001)
        integral = simpson((1.0 - x * x) ** -3.0, x[1] - x[0])
        assert abs(kappa_lambda(tt) + 2.0 * (1.0 - g * g) * integral) < 1e-9


def test_kappa_lambda_is_homogeneous_solution():
    # kappa = -gdot int_0^t gdot^-2 (the growing Wronskian partner of gdot)
    tl = profile_tau_lambda(T=20.0)
    t = tl.grid()
    gd = heteroclinic(t)[1]
    y2 = gd * cumulative_simpson(1.0 / gd ** 2, tl.h)
    idx = [int(round(x / tl.h)) for x in (0.5, 1.0, 3.0, 8.0)]
    for i in idx:
        assert abs(y2[i] - tl.values[i]) < 1e-9 * max(1.0, abs(y2[i]))


def test_kappa_lambda_finite_difference_oracle():
    # (u_lambda(t) - g(t)) / lambda through the elliptic family, lambda ~ 1e-5
    target_lam = 1e-5
    lo, hi = 0.03, 0.2
    for _ in range(60):
        eps = 0.5 * (lo + hi)
        if lambda_of_eps(eps, 1.0).lam < target_lam:
            lo = eps
        else:
            hi = eps
    eps = 0.5 * (lo + hi)
    pair = lambda_of_eps(eps, 1.0)
    kp = modulus_for(eps, 1.0)
    for tt in (0.5, 1.0, 2.0):
        u_lam = ac_family_mod(tt, kp)
        g = heteroclinic(tt)[0]
        fd = (u_lam - g) / pair.lam
        assert abs(fd - kappa_lambda(tt)) < 2e-3


def test_profile_tau_lambda():
    tl = profile_tau_lambda()
    assert tl.values[0] == 0.0
    t = tl.grid()
    assert np.all(tl.values[1:] > 0.0)          # positivity of the lambda shape
    assert abs(tl.slope0 - SQRT2) < 1e-12
    assert ode_residual(tl, t_max=5.0) < 1e-6   # absolute bound on a bounded window
    assert abs(tl.values[-1]) >= 1e-8
    # documented tail growth e^{sqrt2 t} / 8
    i = int(round(12.0 / tl.h))
    assert abs(tl.values[i] / (math.exp(SQRT2 * 12.0) / 8.0) - 1.0) < 0.2


def test_profile_omega():
    om = profile_omega()
    assert om.values[0] == 0.0
    assert abs(om.slope0 + 2.0) < 1e-7          # omega'(0) = -2 exactly
    assert om.slope0 < 0.0
    assert ode_residual(om) < 1e-6
    assert abs(om.values[-1]) >= 1e-8
    # bounded tail with the exact limit -3 sqrt2 / 4
    assert abs(om.values[-1] + 3.0 * SQRT2 / 4.0) < 1e-9
    # slope0 = -(int 6 g tau_lambda gdot^2) / gdot(0) by independent quadrature
    t = om.grid()
    g, gd, _ = heteroclinic(t)
    tau_l = -kappa_lambda(t)
    quad = -simpson(6.0 * g * tau_l * gd ** 2, om.h) * SQRT2
    assert abs(om.slope0 - quad) < 1e-7


@pytest.mark.parametrize("T", [20.0, 40.0, 80.0, 160.0])
@pytest.mark.parametrize("h", [5e-4, 1e-3, 2e-3, 5e-3, 1e-2])
def test_omega_tail_follows_its_measured_law(T, h):
    # |omega(T) + 3 sqrt2/4| measured over these windows: 8.25e-10 (h/1e-2)^4
    # at h = 5e-3 and 1e-2, 2.2e-13 to 1.7e-11 for h <= 2e-3, plus a
    # truncation term of 5.9 T e^{-sqrt2 T} (6.1e-11 at T = 20, 1.4e-8 at
    # 16, below rounding from T ~ 24 on).  Worst ratio to the bound 0.89
    tail = abs(profile_omega(T=T, h=h).values[-1] + 3.0 * SQRT2 / 4.0)
    assert tail <= 9e-10 * (h / 1e-2) ** 4 + 6.5 * T * math.exp(-SQRT2 * T) + 2.5e-11


def test_profile_constants():
    pc = profile_constants()
    target = -1.0 / (3.0 * SQRT2)
    assert abs(pc.sigma1 - target) < 1e-8
    assert abs(pc.sigma2 - target) < 1e-7
    assert abs(pc.sigma1 + pc.sigma2 + SQRT2 / 3.0) < 1e-7
    assert abs(pc.wdot0 + 2.0 / 3.0) < 1e-7
    assert pc.omegadot0 < 0.0
    assert abs(pc.omegadot0 + 2.0) < 1e-7


@pytest.mark.parametrize("T, h", [(20.0, 1e-3), (40.0, 1e-3), (80.0, 1e-3), (40.0, 5e-4),
                                  (40.0, 2e-3), (40.0, 5e-3), (40.0, 1e-2)])
def test_profile_constants_follow_their_measured_laws(T, h):
    # measured over these windows: sigma1 within 5.6e-17 of -sqrt2/6, w'(0)
    # within 4.4e-16 of -2/3 and omega'(0) within 5.8e-15 of -2; sigma2 off
    # by 4.4e-3 h^4 to 4.9e-3 h^4 (4.5e-15 at h = 1e-3, 4.6e-11 at 1e-2)
    pc = profile_constants(T=T, h=h)
    target = -1.0 / (3.0 * SQRT2)
    assert abs(pc.sigma1 - target) <= 1e-15
    assert abs(pc.wdot0 + 2.0 / 3.0) <= 1e-15
    assert abs(pc.omegadot0 + 2.0) <= 2e-14
    assert abs(pc.sigma2 - target) <= 6e-3 * h ** 4 + 1e-14


@pytest.mark.parametrize("h", [5e-4, 1e-3, 2e-3, 5e-3, 1e-2])
def test_ode_residual_is_second_order_in_h(h):
    # the residual divided by (h/1e-3)^2 was measured in [8.98e-7, 9.41e-7]
    # for omega and [3.0e-7, 3.14e-7] for w over these steps
    scale = (h / 1e-3) ** 2
    assert 0.8e-6 <= ode_residual(profile_omega(h=h)) / scale <= 1.0e-6
    assert 2.7e-7 <= ode_residual(profile_w(h=h)) / scale <= 3.4e-7


def test_constants_stability():
    base = profile_constants()
    t_doubled = profile_constants(T=80.0)
    h_halved = profile_constants(h=5e-4)
    for a, b in ((base.sigma1, t_doubled.sigma1), (base.sigma2, t_doubled.sigma2),
                 (base.wdot0, t_doubled.wdot0), (base.omegadot0, t_doubled.omegadot0)):
        assert abs(a - b) < 1e-9
    for a, b in ((base.sigma1, h_halved.sigma1), (base.sigma2, h_halved.sigma2),
                 (base.wdot0, h_halved.wdot0), (base.omegadot0, h_halved.omegadot0)):
        assert abs(a - b) < 1e-8


def test_sigma2_consistency_integral():
    # int t g gdot^2 = 1/6 (the self-adjoint reduction of sigma2)
    t = np.linspace(0.0, 40.0, 40001)
    g, gd, _ = heteroclinic(t)
    assert abs(simpson(t * g * gd ** 2, t[1] - t[0]) - 1.0 / 6.0) < 1e-8


WINDOW_FUNCTIONS = PROFILES + (profile_constants,)


def _bits(result):
    if hasattr(result, "values"):
        return (result.T, result.h, result.slope0, result.values.tobytes(),
                result.rhs_values.tobytes())
    return (result.sigma1, result.sigma2, result.wdot0, result.omegadot0)


def test_one_heteroclinic_evaluation_per_window(monkeypatch):
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return heteroclinic(t)

    monkeypatch.setattr(profiles_mod, "heteroclinic", counting)
    profiles_mod._halfline.cache_clear()
    try:
        for fn in WINDOW_FUNCTIONS:
            fn(T=20.0, h=1e-3)
        assert calls == [20001]
    finally:
        profiles_mod._halfline.cache_clear()


@pytest.fixture
def vp_solves(monkeypatch):
    """One entry per call of the variation-of-parameters core `_vp_core`,
    which every profile solve and sigma2's tau_geom run, from a cold
    half-line cache: "w" when the source is the window's gdot, "other"
    otherwise."""
    solves = []
    core = profiles_mod._vp_core

    def counting(rhs_values, line):
        solves.append("w" if rhs_values is line.gdot else "other")
        return core(rhs_values, line)

    monkeypatch.setattr(profiles_mod, "_vp_core", counting)
    profiles_mod._halfline.cache_clear()
    yield solves
    profiles_mod._halfline.cache_clear()


def test_one_w_solve_per_window(vp_solves):
    # w and the constants are kept with the window: w is solved once however
    # many window functions read it, and the other profiles once each call
    for fn in WINDOW_FUNCTIONS:
        fn(T=20.0, h=1e-3)
    # rho, tau_geom, kappa_ode, omega, then tau_geom's values for sigma2;
    # the constants read w'(0) and omega'(0) from their tail integrals
    assert vp_solves.count("w") == 1 and len(vp_solves) == 6
    profile_w(T=20.0, h=1e-3)
    profile_constants(T=20.0, h=1e-3)
    assert len(vp_solves) == 6
    profile_w(T=20.0, h=5e-4)                   # a new window solves w anew
    assert vp_solves.count("w") == 2


def test_constants_peak_memory():
    # a cold T = 80 window and its constants peak at 8 arrays of 80001
    # floats under tracemalloc (4.89 MiB): the window's 4 and, at most, 4
    # while sigma2's core runs.  Solving tau_geom in full and forming both
    # brackets peaked at 12 (7.33 MiB).  The next 80001-point window
    # (40, 5e-4) peaks at the same 8, because the T = 80 entry is released
    # before it is built.  When the cache evicted the old entry only after
    # building the new one, that build held 9: the old window's 4, t, and 4
    # while heteroclinic ran
    profiles_mod._halfline.cache_clear()
    tracemalloc.start()
    try:
        profile_constants(T=80.0)
        cold = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        profile_constants(h=5e-4)
        next_window = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        profiles_mod._halfline.cache_clear()
    assert max(cold, next_window) <= 8.5 * 80001 * 8


def test_window_profiles_hold_only_values_and_sources():
    # the six profiles of a cold default window, held together, keep 14
    # arrays of 40001 floats alive under tracemalloc: the window's 4, w and
    # w', rho's values, tau_lambda's values (its zero source is a broadcast
    # float) and the values and source of the other three.  When
    # tau_lambda's source was an array of zeros they kept 15, and when every
    # profile also carried its derivative they kept 20
    profiles_mod._halfline.cache_clear()
    tracemalloc.start()
    try:
        held = [fn() for fn in PROFILES]
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        profiles_mod._halfline.cache_clear()
    assert len(held) == 6 and live <= 15 * 40001 * 8


def test_constants_solve_only_tau_geom(vp_solves):
    profile_constants(T=80.0)
    assert vp_solves == ["other"]
    assert profiles_mod._window(80.0, 1e-3).w is None


@pytest.mark.parametrize("T, h", [(20.0, 1e-3), (40.0, 1e-3), (80.0, 1e-3), (40.0, 5e-4),
                                  (20.001, 1e-3)])
def test_constant_slopes_equal_the_solved_profiles_bit_for_bit(T, h):
    # 20.001 has 20002 points: cumulative_simpson closes it with its
    # backward panel
    profiles_mod._halfline.cache_clear()
    pc = profile_constants(T=T, h=h)
    profiles_mod._halfline.cache_clear()
    w = profile_w(T=T, h=h)
    profiles_mod._halfline.cache_clear()
    om = profile_omega(T=T, h=h)
    profiles_mod._halfline.cache_clear()
    assert pc.wdot0 == w.slope0 and pc.omegadot0 == om.slope0


@settings(max_examples=40, deadline=None)
@given(T=st.floats(15.0, 120.0), a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
       c=st.floats(-10.0, 10.0))
def test_tail_bracket_slope_is_the_solve_slope(T, a, b, c):
    # decaying sources a gdot + b t gdot + c g gdot^2, on windows of 15-120
    line = profiles_mod._window(T, 1e-2)
    t, g, gdot = line.t, line.g, line.gdot
    rhs = a * gdot + b * t * gdot + c * g * gdot * gdot
    _, bracket = profiles_mod._tail_bracket(rhs, line)
    assert bracket[0] / gdot[0] == profiles_mod._vp_solve(rhs, line).slope0


WINDOWS = [(40.0, 1e-3), (80.0, 1e-3), (40.0, 5e-4)]


@pytest.fixture(scope="module")
def cold_results():
    out = {}
    for T, h in WINDOWS:
        for fn in WINDOW_FUNCTIONS:
            profiles_mod._halfline.cache_clear()
            out[T, h, fn.__name__] = _bits(fn(T=T, h=h))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_results_do_not_depend_on_call_order(seed, cold_results):
    # each window and function once after a cold cache, in a shuffled order
    # that revisits windows: every result equals its cold-cache bits
    rng = np.random.default_rng(seed)
    calls = [(w, fn) for w in WINDOWS for fn in WINDOW_FUNCTIONS]
    calls = [calls[i] for i in rng.permutation(len(calls))]
    for (T, h), fn in calls:
        assert _bits(fn(T=T, h=h)) == cold_results[T, h, fn.__name__]


def test_cached_halfline_is_read_only():
    ref = _bits(profile_w(T=20.0))

    def vandal(t):
        t[0] = 1.0
        return np.zeros_like(t)

    with pytest.raises(ValueError):
        solve_profile(vandal, T=20.0)
    w = profile_w(T=20.0)
    assert _bits(w) == ref
    with pytest.raises(ValueError):
        w.rhs_values[0] = 1.0          # the cached gdot itself
    with pytest.raises(ValueError):
        w.values[0] = 1.0              # the cached w
    with pytest.raises(ValueError):
        profile_rho(T=20.0).rhs_values[0] = 1.0   # the cached w'
    assert _bits(profile_w(T=20.0)) == ref


def test_window_ends_where_gdot_squared_leaves_the_normal_range():
    edge = profiles_mod._T_UNDERFLOW
    assert abs(edge - 251.19) < 0.01
    # at the edge gdot(T)^2 is still a normal float, just past it it is not
    assert heteroclinic(edge)[1] ** 2 >= sys.float_info.min
    assert heteroclinic(edge * (1 + 1e-12))[1] ** 2 < sys.float_info.min
    base = profile_constants()
    T = edge - 0.01
    for fn in PROFILES:
        p = fn(T=T)
        assert np.all(np.isfinite(p.values))
        assert math.isfinite(p.slope0)
    near = profile_constants(T=T)
    for a, b in zip(_bits(base), _bits(near)):
        assert abs(a - b) < 1e-8
    for fn in WINDOW_FUNCTIONS:
        with pytest.raises(DomainError):
            fn(T=edge + 0.01)
        with pytest.raises(DomainError):
            fn(T=300.0, h=1e-2)


@pytest.mark.parametrize("t_max", [math.nan, -1.0, 0.0, 1e-3, 1.5e-3],
                         ids=["nan", "negative", "zero", "h", "1.5h"])
def test_ode_residual_needs_a_point_in_its_window(t_max):
    w = profile_w(T=20.0)
    with pytest.raises(DomainError):
        ode_residual(w, t_max=t_max)
    assert ode_residual(w, t_max=2e-3) >= 0.0     # t = 2h is the first point


@pytest.mark.parametrize("points", [0, 1, 2, 4])
def test_ode_residual_of_a_short_profile_is_a_domain_error(points):
    zeros = np.zeros(points)
    prof = ProfileFunction(T=1.0, h=0.25, values=zeros, slope0=0.0, rhs_values=zeros)
    with pytest.raises(DomainError):
        ode_residual(prof)


def _rebuilt_grid_residual(profile, t_max=None):
    # ode_residual as it was before it read the cached half-line: the grid
    # rebuilt from the profile and g evaluated on its interior
    f, h, t = profile.values, profile.h, profile.grid()
    d2 = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
    g = heteroclinic(t[2:-2])[0]
    res = d2 - potential_d2(g) * f[2:-2] - profile.rhs_values[2:-2]
    if t_max is not None:
        res = res[t[2:-2] <= t_max]
    return float(np.max(np.abs(res)))


@pytest.fixture
def heteroclinic_calls(monkeypatch):
    """Sizes of the profiles module's heteroclinic evaluations, from a cold
    half-line cache."""
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return heteroclinic(t)

    monkeypatch.setattr(profiles_mod, "heteroclinic", counting)
    profiles_mod._halfline.cache_clear()
    yield calls
    profiles_mod._halfline.cache_clear()


@pytest.mark.parametrize("T, h", [(40.0, 1e-3), (80.0, 1e-3), (40.0, 5e-4), (20.0, 1e-3)])
def test_ode_residual_reads_the_cached_halfline(T, h, heteroclinic_calls):
    # the six profile-suite residuals keep their bits, and none of them
    # evaluates the heteroclinic again while the window is cached
    for fn in PROFILES:
        prof = fn(T=T, h=h)
        t_max = 5.0 if fn is profile_tau_lambda else None
        assert ode_residual(prof, t_max=t_max) == _rebuilt_grid_residual(prof, t_max)
    assert heteroclinic_calls == [int(round(T / h)) + 1]


@pytest.mark.parametrize("T, h", [(40.0, 1e-3), (80.0, 1e-3), (40.0, 5e-4), (20.0, 1e-3)])
def test_tau_lambda_is_minus_kappa_lambda_bit_for_bit(T, h):
    # the CLI's kappa_lambda column is -tau_lambda on the cached half-line
    tl = profile_tau_lambda(T=T, h=h)
    assert (-tl.values).tobytes() == kappa_lambda(tl.grid()).tobytes()


def test_integer_and_float_windows_share_the_cache(heteroclinic_calls):
    a, b = profile_w(T=20, h=1e-3), profile_w(T=20.0, h=1e-3)
    assert _bits(a) == _bits(b) and type(a.h) is type(b.h) is float
    assert heteroclinic_calls == [20001]


def test_window_step_count_is_bounded():
    # a window of more than _MAX_STEPS steps is refused before any array is
    # built: T = 40 at h = 1e-8 would be 4e9 points, 32 GB per array
    h = 1e-4
    profiles_mod._halfline.cache_clear()
    try:
        t, _ = profiles_mod.halfline(T=profiles_mod._MAX_STEPS * h, h=h)
        assert len(t) == profiles_mod._MAX_STEPS + 1
        profiles_mod._halfline.cache_clear()
        with pytest.raises(DomainError, match="more than"):
            profiles_mod.halfline(T=(profiles_mod._MAX_STEPS + 1) * h, h=h)
        tracemalloc.start()
        try:
            for fn in WINDOW_FUNCTIONS:
                with pytest.raises(DomainError, match="4000000000 steps"):
                    fn(T=40.0, h=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    finally:
        profiles_mod._halfline.cache_clear()


# ---------------------------------------------------------------------------
# the in-place kernels against their out-of-place forms, bit for bit


@st.composite
def windows(draw):
    """(T, h) with T drawn in [15, 120] and h in [5e-4, 1e-2], moved by at
    most one step so that the point count is odd or even as drawn."""
    h = draw(st.floats(5e-4, 1e-2))
    n = int(round(draw(st.floats(15.0, 120.0)) / h))
    if ((n + 1) % 2 == 0) != draw(st.booleans()):
        n += 1
    return n * h, h


WINDOW_EXAMPLES = [(40.0, 1e-3), (20.001, 1e-3), (80.0, 1e-3), (40.0, 5e-4)]


def _with_windows(test):
    for T, h in WINDOW_EXAMPLES:
        test = example(window=(T, h))(test)
    return settings(max_examples=15, deadline=None)(given(window=windows())(test))


def _heteroclinic_out_of_place(t):
    """heteroclinic as it was before it worked in place."""
    s = np.asarray(t, dtype=float) / SQRT2
    g = np.tanh(s)
    sech2 = 1.0 / np.cosh(s) ** 2
    gdot = sech2 / SQRT2
    gddot = -g * sech2
    if np.ndim(t) == 0:
        return float(g), float(gdot), float(gddot)
    return g, gdot, gddot


def _kappa_out_of_place(t, g, gdot):
    s = SQRT2 * gdot
    return -(2.0 * g * (5.0 - 3.0 * g * g) / s + 3.0 * SQRT2 * t * s) / 8.0


def _omega_source_out_of_place(line):
    t, g, gdot = line.t, line.g, line.gdot
    return 6.0 * g * (-_kappa_out_of_place(t, g, gdot)) * gdot


def _ode_residual_out_of_place(profile, t_max=None):
    f, h = profile.values, profile.h
    line = profiles_mod._halfline(float(profile.T), len(f) - 1)
    t, g = line.t, line.g
    d2 = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
    res = d2 - potential_d2(g[2:-2]) * f[2:-2] - profile.rhs_values[2:-2]
    if t_max is not None:
        res = res[t[2:-2] <= t_max]
    return float(np.max(np.abs(res)))


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@_with_windows
def test_heteroclinic_in_place_matches_out_of_place(window):
    T, h = window
    t = np.linspace(0.0, T, int(round(T / h)) + 1)
    for x in (t, -t[::-1], t[::7]):
        assert all(map(_same_bits, heteroclinic(x), _heteroclinic_out_of_place(x)))


def test_heteroclinic_on_an_array_builds_three_arrays():
    # over t in [-40, 40], 0 included, g, gdot and gddot keep the
    # out-of-place bits, and the call peaks at the 3 arrays it returns:
    # gddot is formed in sech^2's buffer after gdot.  When gddot was a
    # fourth array the call peaked at 4 arrays of n floats
    t = np.linspace(-40.0, 40.0, 80001)
    assert 0.0 in t
    tracemalloc.start()
    try:
        out = heteroclinic(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(map(_same_bits, out, _heteroclinic_out_of_place(t)))
    assert peak <= 3 * t.nbytes + 2 ** 16


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-300.0, 300.0))
@example(t=0.0)
@example(t=26.0)
def test_heteroclinic_keeps_its_scalar_path(t):
    for x in (t, np.float64(t), np.array(t)):
        out = heteroclinic(x)
        assert all(type(v) is float for v in out)
        assert out == _heteroclinic_out_of_place(x)


@_with_windows
def test_kappa_and_omega_source_in_place_match_out_of_place(window):
    line = profiles_mod._window(*window)
    t, g, gdot = line.t, line.g, line.gdot
    assert _same_bits(profiles_mod._kappa(t, g, gdot), _kappa_out_of_place(t, g, gdot))
    assert _same_bits(profiles_mod._omega_source(line), _omega_source_out_of_place(line))


@_with_windows
def test_ode_residual_in_place_matches_out_of_place(window):
    T, h = window
    for fn in PROFILES:
        prof = fn(T=T, h=h)
        t_max = 5.0 if fn is profile_tau_lambda else None
        assert ode_residual(prof, t_max=t_max) == _ode_residual_out_of_place(prof, t_max)


def test_ode_residual_computes_w2_once_per_window(monkeypatch):
    # the six residuals of one window read one read-only W''(g) from the
    # window's cache entry, computed by the first of them
    profiles_mod._halfline.cache_clear()
    calls = []
    real = profiles_mod.potential_d2

    def counted(u):
        calls.append(len(u))
        return real(u)

    monkeypatch.setattr(profiles_mod, "potential_d2", counted)
    for fn in PROFILES:
        ode_residual(fn(), t_max=5.0 if fn is profile_tau_lambda else None)
    assert calls == [len(profiles_mod.halfline()[0]) - 4]
    line = profiles_mod._window(40.0, 1e-3)
    assert not line.w2_inner.flags.writeable
    profiles_mod._halfline.cache_clear()


@_with_windows
def test_sigma2_from_tau_geom_values_is_the_solved_profile_bit_for_bit(window):
    T, h = window
    profiles_mod._halfline.cache_clear()
    sigma2 = profile_constants(T=T, h=h).sigma2
    line = profiles_mod._window(T, h)
    tau = profile_tau_geom(T=T, h=h)
    assert sigma2 == 6.0 * simpson(tau.values * line.g * line.gdot ** 2, line.h)


@_with_windows
def test_tail_total_is_the_bracket_at_zero_bit_for_bit(window):
    line = profiles_mod._window(*window)
    gdot = line.gdot
    for src in (gdot, line.t * gdot, profiles_mod._omega_source(line)):
        bracket0 = profiles_mod._tail_bracket(src, line)[1][0]
        assert -profiles_mod._tail_total(src * gdot, line.h) == bracket0


# ---------------------------------------------------------------------------
# the profile values against an independent Chebyshev collocation


# the sources, as callables of the collocation's nodes t and its w and w'
# there: in closed form, from tanh and cosh alone, gdot = sech^2/sqrt2 and
# omega's 6 g tau_lambda gdot with tau_lambda = -kappa_lambda; rho's w' and
# kappa_ode's g w from the collocated w


def _sech2(t):
    return 1.0 / np.cosh(t / SQRT2) ** 2


def _w_source(t, *_):
    return _sech2(t) / SQRT2


def _tau_geom_source(t, *_):
    return t * _sech2(t) / SQRT2


def _rho_source(t, w, dw):
    return dw


def _kappa_ode_source(t, w, dw):
    return np.tanh(t / SQRT2) * w


def _omega_oracle_source(t, *_):
    g, s = np.tanh(t / SQRT2), _sech2(t)
    tau_lambda = (2.0 * g * (5.0 - 3.0 * g * g) / s + 3.0 * SQRT2 * t * s) / 8.0
    return 6.0 * g * tau_lambda * s / SQRT2


# (profile, its source, bounded, C, floor): |f - collocation| <= C h^4 + floor
# at t = 0.5, 2, 6 and 12 on [0, 40].  rho's and kappa_ode's sources read w:
# the oracle differentiates (rho, w') or multiplies by g (kappa_ode, g w)
# the collocated w on its own nodes, not the library's w.  Measured with the
# collocation at N = 200: at the default step 1e-3 the gaps are 1.4e-14,
# 4.1e-14, 2.6e-13, 5.1e-14 and 2.1e-14 for w, tau_geom, omega, rho and
# kappa_ode (the first three at the collocation's own rounding floor, which
# moves by up to 5x with N; a 30-digit quadrature put the library at
# 3.0e-14, 2.7e-14 and 1.9e-13), and from h = 2e-3 on they follow C h^4 with
# C at most 0.064, 0.028, 0.197, 0.082 and 0.013.  Worst ratio to the bound
# 0.80, 0.34, 0.77, 0.82 and 0.61
COLLOCATION_CASES = [(profile_w, _w_source, False, 0.08, 1e-13),
                     (profile_tau_geom, _tau_geom_source, False, 0.08, 1e-13),
                     (profile_omega, _omega_oracle_source, True, 0.25, 1e-12),
                     (profile_rho, _rho_source, False, 0.1, 1e-13),
                     (profile_kappa_ode, _kappa_ode_source, False, 0.02, 1e-13)]


@pytest.mark.parametrize("h", [1e-3, 2e-3, 4e-3, 5e-3, 1e-2])
@pytest.mark.parametrize("profile, source, bounded, C, floor", COLLOCATION_CASES,
                         ids=["w", "tau_geom", "omega", "rho", "kappa_ode"])
def test_profiles_match_a_chebyshev_collocation(profile, source, bounded, C, floor, h):
    at = np.array([0.5, 2.0, 6.0, 12.0])
    prof = profile(T=40.0, h=h)
    values = prof.values[np.rint(at / h).astype(int)]
    ref = chebyshev_profile(source, 40.0, at, bounded=bounded)
    assert np.max(np.abs(values - ref)) <= C * h ** 4 + floor
