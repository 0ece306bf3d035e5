"""Seeded inputs and checked operations of the benchmark workloads.

Each workload is a list of ops.  An op is one experiment that ends in a
checked claim, at the tolerance the acceptance criteria state for it.  An op
returns the numbers it produced (they feed the result digest) and records
each check through ``ctx.check``.

Every draw is paired with its mirror image in the drawn range (x and
lo + hi - x, on the scale the work grows with), so that the size of each op,
and of the pass, is the same for every seed: the seed moves where the layers
are sampled, not how much work they do.  The thin-layer gap and Hessian,
single calls too large to pair, run at fixed inputs.

The library is always reached through attribute lookups on the package
(``bc.hessian``, ``bc.experiments_cli.main``), so that the tracer's patched
bindings are the ones called.
"""
import contextlib
import io
import json
import math
import sys

import numpy as np

import becircle as bc

SQRT2 = math.sqrt(2.0)


class Context:
    """Per-op check log plus the pass-wide record byte count."""

    def __init__(self):
        self.failed_checks = []
        self.record_bytes = 0

    def check(self, name, ok, detail=""):
        if not ok:
            self.failed_checks.append(f"{name} ({detail})" if detail else name)


def _mirror(lo, hi, u):
    """A draw in [lo, hi] and its mirror image."""
    x = lo + (hi - lo) * u
    return x, lo + hi - x


def _floats(xs):
    return ",".join(repr(float(x)) for x in xs)


def _cli(ctx, *argv):
    """Run one CLI subcommand in-process and parse its JSON record."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bc.experiments_cli.main(list(argv))
    text = buf.getvalue()
    ctx.record_bytes += len(text.encode())
    ctx.check(f"{argv[0]} exit code", code == 0, f"exit {code}")
    return json.loads(text)


def _cycle_laplacian(m):
    if m == 2:
        return np.array([[2.0, -2.0], [-2.0, 2.0]])
    lc = 2.0 * np.eye(m)
    for i in range(m):
        lc[i, (i + 1) % m] -= 1.0
        lc[i, (i - 1) % m] -= 1.0
    return lc


def _check_v_sweep(ctx, L, eps_list, vs):
    """v < 0 and normal, |v| decreasing with eps, lambda scaling within 20%."""
    for e, v in zip(eps_list, vs):
        ctx.check(f"v<0 normal eps={e:.6g}", v < 0 and abs(v) >= sys.float_info.min,
                  f"v={v:.3e}")
    order = np.argsort(eps_list)[::-1]
    mags = [abs(vs[i]) for i in order]
    ctx.check("|v| decreasing as eps decreases",
              all(b < a for a, b in zip(mags, mags[1:])))
    e_min = float(np.min(eps_list))
    v_min = vs[int(np.argmin(eps_list))]
    om0 = bc.profile_constants().omegadot0
    lam = bc.lambda_of_eps(e_min, L).lam
    ratio = v_min / (SQRT2 * lam * om0 / e_min)
    ctx.check("lambda-scaling ratio within 20%", abs(ratio - 1.0) < 0.2,
              f"ratio={ratio:.4f}")
    return ratio


# ---------------------------------------------------------------------------
# spectral: Morse table, Q structure, v/gap sweep, profile suite

def _morse_table(r3):
    # p = 3 takes arc/eps = r3, p = 1 and 2 its mirror: sum p * (arc/eps),
    # the periodic eigenproblem size, is the same for every draw
    rows = [(1, 26.0 - r3), (2, 26.0 - r3), (3, r3)]

    def op(ctx):
        out = {}
        for p, ratio in rows:
            eps = 1.0 / (2 * p) / ratio
            cfg = bc.NodeConfig(np.arange(2 * p) / (2.0 * p))
            rep = bc.hessian(cfg, eps)
            sol = bc.nodal_solution(p, eps)
            ac = bc.ac_spectrum(sol, how_many=2 * p + 3)
            want = (2 * p - 1, 1)
            ctx.check(f"BE (index, nullity) p={p}", (rep.index, rep.nullity) == want,
                      f"got {(rep.index, rep.nullity)} at eps={eps:.6g}")
            ctx.check(f"AC (index, nullity) p={p}", (ac.n_negative, ac.n_zero) == want,
                      f"got {(ac.n_negative, ac.n_zero)} at eps={eps:.6g}")
            out[f"p{p}"] = [eps, rep.index, rep.nullity, ac.n_negative, ac.n_zero,
                            rep.v, rep.c, rep.spectrum.eigenvalues, ac.eigenvalues]
        return out
    return op


def _q_structure(r1):
    rows = [(1, r1), (2, 26.0 - r1)]

    def op(ctx):
        out = {}
        for p, ratio in rows:
            m = 2 * p
            eps = 1.0 / m / ratio
            cfg = bc.NodeConfig(np.arange(m) / float(m))
            rep = bc.hessian(cfg, eps)
            v = bc.dtn_v(eps, 1.0 / m)
            qref = eps * rep.c ** 2 * v * _cycle_laplacian(m)
            rel = float(np.max(np.abs(rep.Q - qref)) / np.max(np.abs(qref)))
            ctx.check(f"Q vs eps c^2 v Lcyc p={p}", rel < 1e-5, f"rel={rel:.2e}")
            out[f"p{p}"] = [eps, v, rel, rep.Q]
        return out
    return op


def _v_gap_sweep(L, eps_list):
    def op(ctx):
        vs = [bc.dtn_v(e, L) for e in eps_list]
        gaps = [bc.dirichlet_gap(e, L) for e in eps_list]
        ratio = _check_v_sweep(ctx, L, eps_list, vs)
        for e, g in zip(eps_list, gaps):
            ctx.check(f"gap>0 eps={e:.6g}", g > 0, f"gap={g:.3e}")
        return {"eps": eps_list, "v": vs, "gap": gaps, "ratio": ratio}
    return op


def _profile_suite(ctx):
    w, rho, tg = bc.profile_w(), bc.profile_rho(), bc.profile_tau_geom()
    ko, tl, om = bc.profile_kappa_ode(), bc.profile_tau_lambda(), bc.profile_omega()
    res = {"w": bc.ode_residual(w), "rho": bc.ode_residual(rho),
           "tau_geom": bc.ode_residual(tg), "kappa_ode": bc.ode_residual(ko),
           "tau_lambda": bc.ode_residual(tl, t_max=5.0), "omega": bc.ode_residual(om)}
    ctx.check("profile residuals <= 1e-6", max(res.values()) <= 1e-6,
              f"max={max(res.values()):.2e}")
    ctx.check("profiles vanish at the origin",
              all(p.values[0] == 0.0 for p in (w, rho, tg, ko, tl, om)))
    ctx.check("geometric profiles decay below 1e-8",
              all(abs(p.values[-1]) < 1e-8 for p in (w, rho, tg, ko)))
    tail = tl.values[int(round(12.0 / tl.h))] / (math.exp(SQRT2 * 12.0) / 8.0)
    ctx.check("tau_lambda tail within 20%", abs(tail - 1.0) < 0.2, f"{tail:.4f}")
    ctx.check("omega tail -3 sqrt2/4", abs(om.values[-1] + 3.0 * SQRT2 / 4.0) < 1e-8)
    ctx.check("tau_lambda > 0 and omega'(0) < 0",
              bool(np.all(tl.values[1:] > 0.0)) and om.slope0 < 0.0)
    base = bc.profile_constants()
    target = -1.0 / (3.0 * SQRT2)
    sigma0 = bc.well_constants().sigma0
    ctx.check("sigma1, sigma2, sum within 1e-7",
              max(abs(base.sigma1 - target), abs(base.sigma2 - target),
                  abs(base.sigma1 + base.sigma2 + sigma0)) < 1e-7)
    out = {"residuals": res, "base": [base.sigma1, base.sigma2, base.wdot0, base.omegadot0]}
    for label, other in (("T80", bc.profile_constants(T=80.0)),
                         ("h5e-4", bc.profile_constants(h=5e-4))):
        drift = max(abs(base.sigma1 - other.sigma1), abs(base.sigma2 - other.sigma2),
                    abs(base.wdot0 - other.wdot0), abs(base.omegadot0 - other.omegadot0))
        ctx.check(f"constants stable under {label}", drift < 1e-8, f"{drift:.2e}")
        out[label] = drift
    return out


def spectral(rng):
    r3 = 9.0 + 8.0 * rng.uniform()
    r1 = 9.0 + 8.0 * rng.uniform()
    # L/eps: one draw in each of [10,20], [20,30], [30,40], [40,50], the
    # first two mirrored about 20 and the last two about 40
    ra = 10.0 + 10.0 * rng.uniform()
    rc = 30.0 + 10.0 * rng.uniform()
    eps_list = [0.5 / r for r in (ra, 40.0 - ra, rc, 80.0 - rc)]
    return [("morse_table", _morse_table(r3)),
            ("q_structure", _q_structure(r1)),
            ("v_gap_sweep", _v_gap_sweep(0.5, eps_list)),
            ("profile_suite", _profile_suite)]


# ---------------------------------------------------------------------------
# arc-sweeps: two-node scan, Lipschitz scan, gamma sweep, first variation,
# cutoff regimes

def _two_node_scan(eps_pair, grid):
    # even-indexed points at the first eps, odd-indexed at its mirror in 1/eps
    def op(ctx):
        out = {}
        for k, eps in enumerate(eps_pair):
            pts = grid[k::2]
            rec = _cli(ctx, "two-node-scan", "--eps", repr(eps), "--grid", _floats(pts))
            res = rec["results"]
            gaps = res["gap"]
            ctx.check(f"all points evaluated eps={eps:.6g}", len(gaps) == len(pts),
                      f"dropped {res['dropped']}")
            ctx.check(f"two-node gap > 0 eps={eps:.6g}", min(gaps) > 0,
                      f"min gap={min(gaps):.3e}")
            out[repr(eps)] = [res["be"], res["reference"]]
        return out
    return op


def _lipschitz_scan(eps_grid):
    def op(ctx):
        res = _cli(ctx, "lipschitz", "--L", "0.5", "--eps", _floats(eps_grid))["results"]
        ctx.check("finite Lipschitz quotients",
                  bool(np.all(np.isfinite(res["quotients"]))))
        return res
    return op


def _gamma_sweep(q):
    def op(ctx):
        res = _cli(ctx, "gamma-sweep", "--nodes", _floats([0.0, q]),
                   "--eps", "0.02,0.01,0.005")["results"]
        for row in res["rows"]:
            ctx.check(f"BE <= comparator eps={row['eps']}",
                      row["be"] <= row["comparator"] + 1e-9,
                      f"be={row['be']:.9f} comparator={row['comparator']:.9f}")
        ctx.check("Gamma-limit deviation < 1e-3", res["limit_deviation"] < 1e-3,
                  f"{res['limit_deviation']:.2e}")
        return res
    return op


def _first_variation(q, eps):
    def op(ctx):
        cfg = bc.NodeConfig(np.array([0.0, q]))
        out = []
        for f in ([0.0, 1.0], [1.0, 0.0], [0.6, -0.3]):
            fv = bc.first_variation(cfg, eps, np.array(f))
            fd = bc.fd_first_variation(cfg, eps, np.array(f))
            rel = abs(fv - fd) / abs(fd)
            ctx.check(f"FV/FD rel error f={f}", rel < 1e-5, f"rel={rel:.2e}")
            out.append([fv, fd])
        return out
    return op


def _cutoff_regimes(eps, k3):
    def op(ctx):
        def energy(*argv):
            return _cli(ctx, "cutoff-nd", *argv, "--eps", repr(eps))["results"]["energy"]
        c3 = [energy("--n", "3", "--k", repr(k3), "--delta", d)
              for d in ("1e-2", "1e-3", "1e-4")]
        c2 = [energy("--n", "2", "--k", k) for k in ("1e2", "1e4", "1e6")]
        ctx.check("cutoff energies decrease (n=3, delta -> 0)",
                  all(a > b for a, b in zip(c3, c3[1:])))
        ctx.check("cutoff energies decrease (n=2, k -> inf)",
                  all(a > b for a, b in zip(c2, c2[1:])))
        return {"n3": c3, "n2": c2}
    return op


def arc_sweeps(rng):
    inv_a, inv_b = _mirror(1.0 / 0.025, 1.0 / 0.015, rng.uniform())
    spacing = 0.8 / 18
    grid = np.linspace(0.1, 0.9, 19) + rng.uniform(-0.25, 0.25, 19) * spacing
    width = 0.09 / 40
    lip = 0.01 + width * (np.arange(40) + rng.uniform(size=40))
    q_gamma = rng.uniform(0.4, 0.6)
    q_fv = rng.uniform(0.3, 0.45)
    eps_cut, k3 = rng.uniform(0.05, 0.2), rng.uniform(5.0, 20.0)
    return [("two_node_scan", _two_node_scan((1.0 / inv_a, 1.0 / inv_b), grid)),
            ("lipschitz_scan", _lipschitz_scan(lip)),
            ("gamma_sweep", _gamma_sweep(q_gamma)),
            ("first_variation", _first_variation(q_fv, 0.05)),
            ("cutoff_regimes", _cutoff_regimes(eps_cut, k3))]


# ---------------------------------------------------------------------------
# thin-layer: large arcs at L/eps in [100, 200]

def _refined_arcs(L, ratios):
    def op(ctx):
        out = []
        for r in ratios:
            eps = L / r
            sol = bc.solve_dirichlet(L, eps, refine_values=True)
            mod = bc.modulus_for(eps, L)
            oracle = np.array([bc.ac_family_mod(x / eps, mod) for x in sol.u.x()])
            sup = float(np.max(np.abs(sol.u.values - oracle)))
            ctx.check(f"refined grid vs closed form L/eps={r:.6g}", sup <= 1e-8,
                      f"sup={sup:.2e}")
            out.append([eps, sol.lam, sol.energy, sup])
        return out
    return op


def _dtn_pair(L, ratios):
    def op(ctx):
        eps_list = [L / r for r in ratios]
        vs = [bc.dtn_v(e, L) for e in eps_list]
        ratio = _check_v_sweep(ctx, L, eps_list, vs)
        return {"eps": eps_list, "v": vs, "ratio": ratio}
    return op


def _gap_and_index(L, ratio):
    def op(ctx):
        eps = L / ratio
        gap = bc.dirichlet_gap(eps, L)
        ctx.check(f"gap>0 L/eps={ratio:.6g}", gap > 0, f"gap={gap:.3e}")
        rep = bc.hessian(bc.NodeConfig(np.array([0.0, 0.5])), eps)
        ctx.check("BE (index, nullity) p=1", (rep.index, rep.nullity) == (1, 1),
                  f"got {(rep.index, rep.nullity)} at eps={eps:.6g}")
        return [gap, eps, rep.index, rep.nullity, rep.v, rep.c, rep.Q]
    return op


def thin_layer(rng):
    L = 0.5
    # the gap and the Hessian are single calls, which cannot be mirrored, so
    # they run at a fixed L/eps; the Hessian's extended-precision solve is the
    # largest allocation of the workload and so sets its peak memory
    return [("refined_arcs", _refined_arcs(L, _mirror(100.0, 200.0, rng.uniform()))),
            ("dtn_v_pair", _dtn_pair(L, _mirror(100.0, 200.0, rng.uniform()))),
            ("gap_and_index", _gap_and_index(L, 120.0))]


WORKLOADS = {"spectral": spectral, "arc-sweeps": arc_sweeps, "thin-layer": thin_layer}


def build(name, seed):
    """The ops of a workload, with inputs drawn from the seed."""
    return WORKLOADS[name](np.random.default_rng(seed))
