import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ellipj, ellipk

from becircle import (DomainError, NoPositiveSolution, ac_family_mod, heteroclinic,
                      lambda_of_eps, modulus_for, potential, potential_d1,
                      zero_spacing_from_kp)
from becircle import elliptic_oracle
from becircle.elliptic_oracle import (_agm, _complete_K_from_kp, _fold, _landen_plan,
                                      _sn, _sn_array)
from oracles import modulus_by_bisection


def _K_quadrature(k, n=20001):
    """Independent oracle: composite Simpson on the defining integral."""
    theta = np.linspace(0.0, math.pi / 2.0, n)
    f = 1.0 / np.sqrt(1.0 - (k * np.sin(theta)) ** 2)
    h = theta[1] - theta[0]
    return (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum()) * h / 3.0


def _kp(k):
    return math.sqrt((1.0 - k) * (1.0 + k))


def test_complete_K_limits_and_quadrature():
    assert abs(_complete_K_from_kp(1.0) - math.pi / 2.0) < 1e-15
    for k in (0.0, 0.5, 0.9):
        K = _complete_K_from_kp(_kp(k))
        assert abs(K - _K_quadrature(k)) < 1e-10
        assert abs(K - ellipk(k * k)) < 1e-14
    with pytest.raises(DomainError):
        _complete_K_from_kp(0.0)


def test_complete_K_monotone():
    # K grows without bound as k -> 1, i.e. decreases in kp
    kps = [1e-300, 1e-100, 1e-8, 0.01, 0.3, 0.6, 0.9, 1.0]
    vals = [_complete_K_from_kp(kp) for kp in kps]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# kp at k = 0.8, and the moduli of arcs at L/eps 10, 60 and 200, where k
# itself rounds to 1.0 from L/eps ~ 55 on
_ORACLE_KPS = [0.6] + [modulus_for(0.5 / r, 0.5) for r in (10.0, 60.0, 200.0)]


def _sn_kp(x, kp):
    """The package's sn at modulus kp over its cached plan: the scalar ascent
    for a float, the array ascent for an array."""
    plan = _landen_plan(kp)
    sn = _sn_array if isinstance(x, np.ndarray) else _sn
    return sn(x, plan.descent, plan.ascent)


def _sn_cn_dn(x, kp):
    """sn from the package's ascent, cn and dn from the reference one."""
    return (_sn_kp(x, kp),) + _sn_cn_dn_per_call(x, kp)[1:]


def test_jacobi_sn_degenerate_moduli():
    # k = 0 (kp = 1): sin, cos and 1.0, bit for bit
    for x in (0.0, -0.0, 0.3, 1.0, 2.5, -7.0, 1e300):
        ours = _sn_cn_dn(x, 1.0)
        assert all(type(v) is float for v in ours)
        assert np.array_equal(_bits(ours), _bits((math.sin(x), math.cos(x), 1.0)))
    # the k = 1 limit: the family becomes the heteroclinic tanh(x / sqrt 2)
    kp = modulus_for(0.5 / 200.0, 0.5)
    x = np.linspace(0.0, 20.0, 2001)
    assert np.max(np.abs(ac_family_mod(x, kp) - heteroclinic(x)[0])) < 1e-15


def test_jacobi_identities():
    for kp in _ORACLE_KPS:
        k2 = (1.0 - kp) * (1.0 + kp)
        x = np.linspace(0.0, _complete_K_from_kp(kp), 2001)
        sn, cn, dn = _sn_cn_dn(x, kp)
        assert np.max(np.abs(sn * sn + cn * cn - 1.0)) < 1e-12
        assert np.max(np.abs(dn * dn - (1.0 - k2 * sn * sn))) < 1e-12


def test_jacobi_periodicity():
    # zeros of the family are Z apart and it alternates sign between them
    for kp in _ORACLE_KPS:
        Z = zero_spacing_from_kp(kp)
        x = np.linspace(0.0, 2.0 * Z, 401)
        g = ac_family_mod(x, kp)
        assert np.max(np.abs(ac_family_mod(x + Z, kp) + g)) < 1e-11
        assert np.max(np.abs(ac_family_mod(x + 2.0 * Z, kp) - g)) < 1e-11


def test_jacobi_derivative_relations():
    # sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn by fourth-order centered
    # differences (wide enough steps that the ascent's rounding stays small)
    d = 1e-3
    for kp in _ORACLE_KPS:
        k2 = (1.0 - kp) * (1.0 + kp)
        x = np.linspace(0.0, _complete_K_from_kp(kp), 200)
        v = [_sn_cn_dn(x + j * d, kp) for j in (-2, -1, 1, 2)]
        sn, cn, dn = _sn_cn_dn(x, kp)
        dsn, dcn, ddn = ((f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * d)
                         for f in zip(*v))
        assert np.max(np.abs(dsn - cn * dn)) < 1e-9
        assert np.max(np.abs(dcn + sn * dn)) < 1e-9
        assert np.max(np.abs(ddn + k2 * sn * cn)) < 1e-9


# arcs at L/eps 4 to 200: the family's zero spacing equals L/eps
_ARC_MODULI = [modulus_for(0.5 / r, 0.5) for r in (4.0, 10.0, 25.0, 60.0, 200.0)]


def test_ac_family_basic():
    for kp in _ARC_MODULI:
        Z = zero_spacing_from_kp(kp)
        assert ac_family_mod(0.0, kp) == 0.0
        # the max sits half way between the zeros and equals the amplitude
        amp = _kp(kp) * math.sqrt(2.0 / (2.0 - kp * kp))
        assert abs(ac_family_mod(0.5 * Z, kp) - amp) < 1e-10
        assert np.max(ac_family_mod(np.linspace(0.0, Z, 4001), kp)) <= amp + 1e-12
        # past the first zero the family is negative, also where k rounds to 1.0
        assert ac_family_mod(1.5 * Z, kp) < 0.0


def test_ac_family_solves_equation():
    # fourth-order FD residual of g'' = W'(g) at 50 sample points per arc
    h = 5e-3
    for kp in _ARC_MODULI:
        x = np.linspace(0.3, zero_spacing_from_kp(kp) - 0.3, 50)
        v = [ac_family_mod(x + j * h, kp) for j in (-2, -1, 0, 1, 2)]
        d2 = (-v[4] + 16 * v[3] - 30 * v[2] + 16 * v[1] - v[0]) / (12 * h * h)
        assert np.max(np.abs(d2 - potential_d1(v[2]))) < 1e-9


def test_zero_spacing_against_root_finding():
    kp = modulus_for(0.05, 0.5)   # spacing 10
    f = lambda x: ac_family_mod(x, kp)
    Z = zero_spacing_from_kp(kp)
    lo, hi = 0.5 * Z, 1.5 * Z
    assert f(lo) > 0 and f(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - Z) < 1e-9


def test_modulus_for_threshold_and_monotonicity():
    with pytest.raises(NoPositiveSolution):
        modulus_for(0.2, 0.5)     # 0.2 > 1/(2 pi)
    with pytest.raises(NoPositiveSolution):
        modulus_for(math.inf, 0.5)
    with pytest.raises(DomainError):
        modulus_for(0.05, math.inf)
    # k = _kp(kp): the complement is the same expression both ways
    assert _kp(modulus_for(0.001, 0.5)) > 0.999
    assert _kp(modulus_for(0.01, 0.5)) > _kp(modulus_for(0.05, 0.5))
    assert abs(zero_spacing_from_kp(modulus_for(0.02, 0.5)) - 25.0) < 1e-9
    # the printed-formula identity, at a moderate modulus where a
    # k-parameterized K carries full precision
    kp2 = modulus_for(0.1, 0.5)
    k2 = _kp(kp2)
    assert abs(zero_spacing_from_kp(kp2)
               - 2.0 * ellipk(k2**2) * math.sqrt(1 + k2**2)) < 1e-10


@pytest.mark.parametrize("eps, L", [(math.nan, 0.5), (0.05, math.nan)])
def test_modulus_for_rejects_nan(eps, L):
    with pytest.raises(DomainError, match="must be positive"):
        modulus_for(eps, L)
    with pytest.raises(DomainError, match="must be positive"):
        lambda_of_eps(eps, L)


def test_lambda_of_eps():
    pair = lambda_of_eps(0.02, 0.5)
    assert abs(pair.lam - potential(pair.amplitude)) < 1e-10
    assert lambda_of_eps(0.005, 0.5).lam < lambda_of_eps(0.02, 0.5).lam
    # strict monotonicity on a 20-point grid
    eps = np.linspace(0.01, 0.15, 20)
    lams = [lambda_of_eps(e, 0.5).lam for e in eps]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_lambda_of_eps_raises_at_underflow():
    # lam ~ 16 e^{-sqrt2 L/eps} leaves the normal float64 range near L/eps = 503
    lam = lambda_of_eps(0.5 / 500.0, 0.5).lam
    assert lam >= np.finfo(float).tiny
    assert abs(lam / 1.29e-306 - 1.0) < 0.01
    with pytest.raises(DomainError, match="L/eps = 520"):
        lambda_of_eps(0.5 / 520.0, 0.5)      # a subnormal, 6.7e-319
    with pytest.raises(DomainError, match="L/eps = 700"):
        lambda_of_eps(0.5 / 700.0, 0.5)      # exactly 0.0


def test_lambda_slope_relation():
    # slope^2/2 - W(0) = -lam at a node, slope from the conserved quantity
    pair = lambda_of_eps(0.03, 0.5)
    slope = math.sqrt(2.0 * (potential(0.0) - pair.lam))
    assert abs(slope**2 / 2.0 - potential(0.0) + pair.lam) < 1e-8


def _bits(values):
    """Bit patterns of float64 values, so that -0.0 and 0.0 differ too."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


# moduli as the arc solves meet them (L/eps in [3.2, 1950]), plus k = 0
_MODULI = st.one_of(
    st.floats(3.2, 1950.0).map(lambda r: modulus_for(0.5 / r, 0.5)),
    st.just(1.0),
)


def _fold_per_element(t, K):
    """The reference fold of a float t into [0, K], (t, flip_s) with
    sn(t_in) = flip_s sn(t): the operations of ac_family_mod's scalar path."""
    period = 4.0 * K
    t = math.fmod(t, period)
    if t < 0:
        t += period
    flip_s = 1.0
    if t > 2.0 * K:
        t -= 2.0 * K
        flip_s = -1.0
    if t > K:
        t = 2.0 * K - t
    return t, flip_s


# the far end of the range, with the fold points alone (no drawn abscissae)
@example(kp=modulus_for(0.5 / 1950.0, 0.5), data=None)
@settings(max_examples=80, deadline=None)
@given(kp=_MODULI, data=st.data())
def test_ac_family_mod_array_equals_scalar_calls(kp, data):
    plan = _landen_plan(kp)
    K, scale, amplitude = plan.K, plan.scale, plan.amplitude
    assert K == _complete_K_from_kp(kp) and scale == math.sqrt(2.0 - kp * kp)
    reach = 12.0 * K                    # three periods of sn on either side
    t = [] if data is None else data.draw(
        st.lists(st.floats(-reach, reach), min_size=1, max_size=40))
    t += [j * K for j in range(-12, 13)] + [2.0 * j * K for j in range(-6, 7)]
    # abscissae on and next to the fold points K, 2K, ... of the rescaled t
    x = np.array(t) * scale
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    array = _bits(ac_family_mod(x, kp))
    # float abscissae, the np.float64 ones that iterating a grid yields, and
    # 0-d arrays, which are divided by the scale in float64 and take the
    # float path
    for xs in ([float(xi) for xi in x], list(x), [np.array(xi) for xi in x]):
        scalar = [ac_family_mod(xi, kp) for xi in xs]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(array, _bits(scalar))
    # a float runs the reference fold, then the scalar ascent
    for xi, v in zip(x.tolist(), scalar):
        ti, flip_s = _fold_per_element(xi / scale, K)
        s = _sn(ti, plan.descent, plan.ascent)
        assert _bits(v) == _bits(flip_s * amplitude * s)
    # the array fold alone, at exact multiples of K and 2K
    folded = _fold(np.array(t), plan)
    for i, ti in enumerate(t):
        assert np.array_equal(_bits([f[i] for f in folded]),
                              _bits(_fold_per_element(ti, K)))


@pytest.mark.parametrize("ratio", [20.0, 50.0, 130.0, 1950.0])
def test_ac_family_mod_evaluates_float32_at_its_float64_value(ratio):
    # a float32 abscissa, scalar or array, is evaluated in float64 at its
    # exact value.  Divided by the scale in float32 it ran the fold and the
    # Landen chain in float32: at L/eps = 50 the float32 10.3 gave
    # 0.99999905610775 where its float64 value gives 0.999999056107216.
    # Integers are read as their floats too
    kp = modulus_for(0.5 / ratio, 0.5)
    for xs in (np.concatenate([np.linspace(-60.0, 60.0, 241, dtype=np.float32),
                               np.array([10.3, -10.3], dtype=np.float32)]),
               np.arange(-60, 61)):
        x64 = xs.astype(np.float64)
        v = ac_family_mod(xs, kp)
        assert v.dtype == np.float64
        assert np.array_equal(_bits(v), _bits(ac_family_mod(x64, kp)))
        for a, b in zip(xs, x64.tolist()):
            s = ac_family_mod(a, kp)
            assert type(s) is float and _bits(s) == _bits(ac_family_mod(b, kp))
    v = ac_family_mod(7, kp)
    assert type(v) is float and _bits(v) == _bits(ac_family_mod(7.0, kp))


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=30))
def test_sn_cn_dn_kp_degenerate_moduli_on_arrays(xs):
    # kp = 1 (k = 0) has an empty Landen chain: sin, cos and 1.0 bit for bit,
    # for an array as for per-element scalar calls
    x = np.array(xs)
    arrays = _sn_cn_dn(x, 1.0)
    for values, ref in zip(arrays, (np.sin(x), np.cos(x), np.ones_like(x))):
        assert np.array_equal(_bits(values), _bits(ref))
    for j, values in enumerate(arrays):
        scalar = [_sn_cn_dn(xi, 1.0)[j] for xi in xs]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(_bits(values), _bits(scalar))
    # outside (0, 1] there is no modulus
    for kp in (-0.5, 0.0, 1.5):
        for arg in (xs[0], x):
            with pytest.raises(DomainError):
                _sn_kp(arg, kp)
            with pytest.raises(DomainError):
                ac_family_mod(arg, kp)


@pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9])
def test_sn_cn_dn_kp_matches_scipy_ellipj(k):
    # ellipj takes m = k^2 and loses accuracy as k -> 1, hence k <= 0.9
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    x = np.linspace(0.0, _complete_K_from_kp(kp), 2001)
    ours = _sn_cn_dn(x, kp)
    ref = ellipj(x, k * k)[:3]
    for a, b in zip(ours, ref):
        assert np.max(np.abs(a - b)) < 1e-13


def _agm_to_cap(a, b):
    """The AGM loop without its fixed-point stop: it runs to the 80-step cap
    whenever a and b settle one ulp apart."""
    for _ in range(80):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


# log-uniform complementary moduli in (1e-300, 1)
_KP = st.floats(math.log(1e-300), 0.0, exclude_min=True, exclude_max=True).map(math.exp)


# the moduli of modulus_for(0.5 / r, 0.5) at L/eps r = 3.3, 20, 650 and 1500,
# where the loop without the fixed-point stop runs to its cap
@example(kp=0.9662683332484792)
@example(kp=0.0033972930164174373)
@example(kp=6.265759279732704e-100)
@example(kp=1.9170352650272893e-230)
@settings(max_examples=500, deadline=None)
@given(kp=_KP)
def test_agm_fixed_point_stop_keeps_bits(kp):
    assert _bits(_agm(1.0, kp)) == _bits(_agm_to_cap(1.0, kp))


def _chain_per_call(kp):
    """The descending Landen chain (k_j, kp_j), j = 1, 2, ..., down to the
    first k_j < 1e-15, identity levels included."""
    chain, kp_j = [], kp
    for _ in range(32):
        k_next = (1.0 - kp_j) / (1.0 + kp_j)
        kp_next = math.sqrt(2.0 * kp_j / (1.0 + kp_j) * (1.0 + k_next))
        chain.append((k_next, kp_next))
        if k_next < 1e-15:
            break
        kp_j = kp_next
    return chain


def _sn_cn_dn_per_call(x, kp):
    """The Landen descent and ascent of sn, cn and dn, with the chain rebuilt
    on every call; x is a float or an array.  The package computes sn only;
    this is the tests' reference for sn and their oracle for cn and dn."""
    xp = np if isinstance(x, np.ndarray) else math
    chain = _chain_per_call(kp)
    u = x
    for k_j, _ in chain:
        u = u / (1.0 + k_j)
    s, c, d = xp.sin(u), xp.cos(u), 1.0
    uppers = [(math.sqrt((1.0 - kp) * (1.0 + kp)), kp)] + chain[:-1]
    for (k_low, _), (k_up, kp_up) in zip(reversed(chain), reversed(uppers)):
        denom = 1.0 + k_low * s * s
        c = c * d / denom
        s = (1.0 + k_low) * s / denom
        d = xp.sqrt(kp_up * kp_up + k_up * k_up * c * c)
    return s, c, d


# kp = 1 has no level left; kp ~ 1e-299 keeps the longest chain, 13 levels;
# at L/eps 6 and 12 (L = 0.5) the last level kept has k = 2.78e-16 and
# 3.33e-16, between 2^-53 and 1e-15, where the per-call chain stops
@example(kp=1.0, frac=0.7)
@example(kp=modulus_for(0.5 / 6, 0.5), frac=0.7)
@example(kp=modulus_for(0.5 / 12, 0.5), frac=0.7)
@example(kp=1e-299, frac=0.7)
@example(kp=1e-299, frac=1.0)
@settings(max_examples=200, deadline=None)
@given(kp=_KP, frac=st.floats(0.0, 1.0))
def test_cached_landen_plan_matches_per_call_chain(kp, frac):
    x = frac * _complete_K_from_kp(kp)      # the folded range [0, K]
    assert _bits(_sn_kp(x, kp)) == _bits(_sn_cn_dn_per_call(x, kp)[0])
    assert _bits(_sn_kp(np.array([x]), kp)) == _bits(_sn_cn_dn_per_call(x, kp)[0])
    # the plan keeps the per-call chain's levels but its identity ones,
    # k <= 2^-53, where 1 + k rounds to 1.0
    plan = _landen_plan(kp)
    assert plan.descent == tuple(one_plus_k for _, one_plus_k in reversed(plan.ascent))
    ks = [k for k, _ in reversed(plan.ascent)]
    assert all(k > 2.0 ** -53 for k in ks)
    assert ks == [k for k, _ in _chain_per_call(kp) if k > 2.0 ** -53]
    assert len(ks) <= 13


def test_scalar_calls_at_one_modulus_build_K_once(monkeypatch):
    kp = modulus_for(0.005, 0.5)
    calls = []

    def counting_agm(a, b):
        calls.append(b)
        return _agm(a, b)

    monkeypatch.setattr(elliptic_oracle, "_agm", counting_agm)
    amplitude = elliptic_oracle._amplitude_from_kp
    amplitudes = []
    monkeypatch.setattr(elliptic_oracle, "_amplitude_from_kp",
                        lambda kp: amplitudes.append(kp) or amplitude(kp))
    _landen_plan.cache_clear()
    # N = 400 scalar calls: floats, then the np.float64 values of a grid
    grid = np.linspace(0.0, 100.0, 200)
    for x in grid.tolist() + list(grid):
        ac_family_mod(x, kp)
    assert len(calls) == 1 and amplitudes == [kp]
    info = _landen_plan.cache_info()
    assert (info.misses, info.hits) == (1, 399)


def test_modulus_for_leaves_the_plan_cache_alone():
    _landen_plan.cache_clear()
    modulus_for(0.003, 0.5)
    assert _landen_plan.cache_info().currsize == 0


def _modulus_or_error(fn, eps, L):
    try:
        kp = fn(eps, L)
    except (DomainError, NoPositiveSolution) as exc:
        return type(exc)
    return int(_bits(kp))


# L/eps at the lower edge pi and beyond it, and at the upper edge (the
# spacing at kp = 1e-300) and beyond it
@example(L=0.5, ratio=math.pi)
@example(L=0.5, ratio=3.0)
@example(L=0.5, ratio=zero_spacing_from_kp(math.exp(math.log(1e-300))))
@example(L=2.0, ratio=2500.0)
@example(L=0.5, ratio=3.1416)
@example(L=0.5, ratio=3.15)
@example(L=0.5, ratio=503.0)
@example(L=0.5, ratio=1500.0)
@example(L=0.5, ratio=1950.0)
@settings(max_examples=300, deadline=None)
@given(L=st.floats(0.01, 3.0),
       ratio=st.floats(math.log(math.pi * (1 + 1e-12)), math.log(1958.0)).map(math.exp))
def test_modulus_for_matches_plain_bisection(L, ratio):
    eps = L / ratio
    assert (_modulus_or_error(modulus_for, eps, L)
            == _modulus_or_error(modulus_by_bisection, eps, L))


def test_modulus_for_evaluates_the_spacing_at_most_45_times(monkeypatch):
    calls = []
    real = elliptic_oracle.zero_spacing_from_kp

    def counted(kp):
        calls.append(kp)
        return real(kp)

    monkeypatch.setattr(elliptic_oracle, "zero_spacing_from_kp", counted)
    ratios = np.concatenate([np.geomspace(3.1416, 1950.0, 200), [3.15, 503.0, 1500.0]])
    for L in (0.1, 0.5, 2.0):
        for ratio in ratios:
            calls.clear()
            modulus_for(L / ratio, L)
            assert len(calls) <= 45, (L, ratio, len(calls))


@example(kp=1.0)
@example(kp=1e-300)
@settings(max_examples=300, deadline=None)
@given(kp=_KP)
def test_zero_spacing_within_8_ulps(kp):
    # modulus_for's window margin rests on this bound
    z = zero_spacing_from_kp(kp)
    with mp.workprec(200):
        kp_mp = mp.mpf(kp)
        exact = mp.pi / mp.agm(1, kp_mp) * mp.sqrt(2 - kp_mp * kp_mp)
        assert abs(mp.mpf(z) - exact) <= 8 * math.ulp(z)
