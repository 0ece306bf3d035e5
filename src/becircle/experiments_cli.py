"""Reproducible experiment driver: gamma-convergence sweeps, index tables,
profile dumps, non-existence scans.  JSON records (sorted keys, 17 significant
digits) and CSV tables; golden files regenerate byte-identically with
``BECIRCLE_REGEN=1 pytest tests/test_cli.py``.
"""
import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .balanced_energy import (NodeConfig, ac_spectrum, broken_transition,
                              dirichlet_gap, first_variation, hessian)
from .bvp_engine import simpson
from .errors import BECircleError
from .nonexistence import CutoffSpec, cutoff_energy, two_node_scan
from .profiles import (DEFAULT_H, DEFAULT_T, kappa_lambda, profile_constants,
                       profile_omega, profile_rho, profile_tau_geom,
                       profile_tau_lambda, profile_w)
from .scalar_field import heteroclinic, potential
from .solver_1d import (existence_threshold, lipschitz_scan, nodal_solution,
                        solve_dirichlet)

SQRT2 = math.sqrt(2.0)


def _r(x):
    """Canonical 17-significant-digit rounding for record determinism."""
    return float(f"{float(x):.17g}")


def interface_constant():
    """Per-interface energy of a full transition: int_{-1}^{1} sqrt(2 W)."""
    u = np.linspace(-1.0, 1.0, 2001)
    return simpson(np.sqrt(2.0 * potential(u)), u[1] - u[0])


def comparator_energy(config, eps, points_per_eps=200):
    """Energy of the truncated-heteroclinic recovery profile g_k on the circle.

    Per arc: u = g(d/eps) chi(d) + (1 - chi(d)) in the distance d to the node
    set, with a smooth cos^2 ramp from 1 to 0 on [rho0/4, rho0/2].
    """
    lengths = config.arc_lengths()
    rho0 = float(np.min(lengths)) / 2.0
    lo, hi = rho0 / 4.0, rho0 / 2.0

    def chi(d):
        out = np.ones_like(d)
        ramp = (d > lo) & (d < hi)
        out[ramp] = np.cos(0.5 * math.pi * (d[ramp] - lo) / (hi - lo)) ** 2
        out[d >= hi] = 0.0
        return out

    def dchi(d):
        out = np.zeros_like(d)
        ramp = (d > lo) & (d < hi)
        s = 0.5 * math.pi * (d[ramp] - lo) / (hi - lo)
        out[ramp] = -math.pi * np.cos(s) * np.sin(s) / (hi - lo)
        return out

    total = 0.0
    for ell in lengths:
        m = max(2000, int(round(ell / (eps / points_per_eps))))
        m += m % 2
        x = np.linspace(0.0, ell, m + 1)
        d = np.minimum(x, ell - x)
        dprime = np.where(x <= ell / 2.0, 1.0, -1.0)
        g, gdot, _ = heteroclinic(d / eps)
        c = chi(d)
        u = g * c + (1.0 - c)
        du = (gdot / eps * c + (g - 1.0) * dchi(d)) * dprime
        density = 0.5 * eps * du ** 2 + potential(u) / eps
        total += simpson(density, x[1] - x[0])
    return total


def gamma_sweep(config, eps_grid, points_per_eps=50):
    """BE over the eps grid, first-order Richardson limit, comparator check."""
    eps_grid = sorted(float(e) for e in eps_grid)
    rows = []
    for e in eps_grid:
        bt = broken_transition(config, e, points_per_eps=points_per_eps)
        comp = comparator_energy(config, e)
        rows.append({"eps": e, "be": bt.be, "comparator": comp,
                     "be_below_comparator": bool(bt.be <= comp + 1e-9)})
    e1, e2 = eps_grid[1], eps_grid[0]           # two smallest, e2 < e1
    b1 = next(r["be"] for r in rows if r["eps"] == e1)
    b2 = next(r["be"] for r in rows if r["eps"] == e2)
    limit = (e1 * b2 - e2 * b1) / (e1 - e2)
    per_interface = interface_constant()
    target = config.m * per_interface
    return {
        "rows": rows,
        "extrapolated_limit": limit,
        "per_interface_constant": per_interface,
        "limit_target": target,
        "limit_deviation": abs(limit - target),
    }


def index_table(p_list, eps_list, points_per_eps=100):
    """Morse-index rows (p, eps, BE and AC counts, v, c) with skip flags."""
    rows = []
    ok = True
    for p, e in zip(p_list, eps_list):
        thr = 1.0 / (2 * p * math.pi)
        if e >= thr:
            rows.append({"p": p, "eps": e, "skipped": f"eps >= 1/(2 p pi) = {thr:.6g}"})
            continue
        nodes = NodeConfig(np.arange(2 * p) / (2.0 * p))
        rep = hessian(nodes, e, points_per_eps=points_per_eps)
        sol = nodal_solution(p, e)
        ac = ac_spectrum(sol, how_many=min(2 * p + 3, sol.u.n + 1))
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
    return {"rows": rows, "all_match_S1MorseIndexTheorem": ok}


# ---------------------------------------------------------------------------
# record plumbing

def _meta(args):
    return {
        "grid_per_eps": getattr(args, "grid_per_eps", 50),
        "tol": getattr(args, "tol", 1e-12),
        "T": getattr(args, "T", DEFAULT_T),
        "version": __version__,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _r(obj)
    if isinstance(obj, (np.integer, int, bool, str)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return str(obj)


def write_record(args, experiment, params, results):
    rec = {
        "experiment": experiment,
        "params": _jsonable(params),
        "results": _jsonable(results),
        "meta": _jsonable(_meta(args)),
    }
    text = json.dumps(rec, sort_keys=True, indent=1)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return rec


def _csv_lines(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    return lines


def _write_text(args, lines):
    text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args):
    sol = solve_dirichlet(args.L, args.eps, points_per_eps=args.grid_per_eps,
                          tol=args.tol)
    write_record(args, "solve", {"L": args.L, "eps": args.eps}, {
        "lam": sol.lam, "energy": sol.energy,
        "slope_left": sol.slope_left, "slope_right": sol.slope_right,
        "max": float(np.max(sol.u.values)),
        "threshold": existence_threshold(args.L),
    })
    return 0


def _cmd_be(args):
    config = NodeConfig(np.array(args.nodes))
    bt = broken_transition(config, args.eps, points_per_eps=args.grid_per_eps)
    write_record(args, "be", {"nodes": args.nodes, "eps": args.eps}, {
        "be": bt.be,
        "piece_energies": [p.energy for p in bt.pieces],
        "piece_lams": [p.lam for p in bt.pieces],
    })
    return 0


def _cmd_variation(args):
    config = NodeConfig(np.array(args.nodes))
    fv = first_variation(config, args.eps, np.array(args.f),
                         points_per_eps=args.grid_per_eps)
    write_record(args, "variation",
                 {"nodes": args.nodes, "eps": args.eps, "f": args.f},
                 {"first_variation": fv})
    return 0


def _cmd_index(args):
    table = index_table([args.p], [args.eps], points_per_eps=args.grid_per_eps)
    write_record(args, "index", {"p": args.p, "eps": args.eps}, table)
    if not table["all_match_S1MorseIndexTheorem"]:
        print("assertion failed: S1MorseIndexTheorem", file=sys.stderr)
        return 2
    return 0


def _cmd_gamma_sweep(args):
    config = NodeConfig(np.array(args.nodes))
    res = gamma_sweep(config, args.eps, points_per_eps=args.grid_per_eps)
    write_record(args, "gamma-sweep", {"nodes": args.nodes, "eps": args.eps}, res)
    if not all(r["be_below_comparator"] for r in res["rows"]):
        print("assertion failed: GammaConSimple comparator", file=sys.stderr)
        return 2
    return 0


def _cmd_profiles(args):
    T, h = args.T, DEFAULT_H
    w = profile_w(T, h)
    rho = profile_rho(T, h)
    tg = profile_tau_geom(T, h)
    tl = profile_tau_lambda(T, h)
    om = profile_omega(T, h)
    t = w.grid()
    g = heteroclinic(t)[0]
    kl = kappa_lambda(t)
    header = ["t", "g", "w", "rho", "tau_geom", "tau_lambda", "kappa_lambda", "omega"]
    stride = max(1, int(round(args.stride / h)))
    rows = []
    for i in range(0, len(t), stride):
        rows.append([float(t[i]), float(g[i]), float(w.values[i]),
                     float(rho.values[i]), float(tg.values[i]),
                     float(tl.values[i]), float(kl[i]), float(om.values[i])])
    consts = profile_constants(T, h)
    lines = _csv_lines(header, rows)
    lines.append("# constants")
    lines.append(f"# sigma1,{consts.sigma1:.17g}")
    lines.append(f"# sigma2,{consts.sigma2:.17g}")
    lines.append(f"# wdot0,{consts.wdot0:.17g}")
    lines.append(f"# omegadot0,{consts.omegadot0:.17g}")
    _write_text(args, lines)
    return 0


def _cmd_two_node_scan(args):
    scan = two_node_scan(args.eps, args.grid, points_per_eps=args.grid_per_eps)
    if args.format == "csv":
        rows = [[float(p), float(b), float(g)]
                for p, b, g in zip(scan.p, scan.be, scan.gap)]
        _write_text(args, _csv_lines(["p", "be", "gap"], rows))
        return 0 if np.all(scan.gap > 0) else 2
    write_record(args, "two-node-scan", {"eps": args.eps, "grid": args.grid}, {
        "p": list(scan.p), "be": list(scan.be), "gap": list(scan.gap),
        "reference": scan.reference,
        "infimum": float(np.min(scan.be)) if len(scan.be) else None,
        "dropped": [list(d) for d in scan.dropped],
        "all_above_reference": bool(np.all(scan.gap > 0)),
    })
    if len(scan.gap) and not np.all(scan.gap > 0):
        print("assertion failed: NoAbsoluteMinimizerS1", file=sys.stderr)
        return 2
    return 0


def _cmd_cutoff_nd(args):
    spec = CutoffSpec(n=args.n, k=args.k, eps=args.eps, delta=args.delta)
    write_record(args, "cutoff-nd",
                 {"n": args.n, "k": args.k, "eps": args.eps, "delta": spec.delta},
                 {"energy": cutoff_energy(spec)})
    return 0


def _cmd_gap_sweep(args):
    gaps = [dirichlet_gap(e, args.L, points_per_eps=args.grid_per_eps)
            for e in args.eps]
    write_record(args, "gap-sweep", {"L": args.L, "eps": args.eps}, {
        "gaps": gaps, "all_positive": bool(all(g > 0 for g in gaps)),
    })
    if not all(g > 0 for g in gaps):
        print("assertion failed: LinearizedOperatorInverseThm", file=sys.stderr)
        return 2
    return 0


def _cmd_lipschitz(args):
    scan = lipschitz_scan(args.L, args.eps, points_per_eps=args.grid_per_eps)
    if args.format == "csv":
        rows = [[float(e), float(g)] for e, g in zip(scan.eps, scan.energies)]
        _write_text(args, _csv_lines(["eps", "energy"], rows))
        return 0
    write_record(args, "lipschitz", {"L": args.L, "eps": args.eps}, {
        "energies": list(scan.energies),
        "quotients": list(scan.quotients),
        "max_quotient": scan.max_quotient,
    })
    return 0


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _add_common(sp):
    sp.add_argument("--grid-per-eps", dest="grid_per_eps", type=int, default=50)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--T", type=float, default=DEFAULT_T)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    ap = argparse.ArgumentParser(prog="becircle",
                                 description="balanced-energy experiments on the circle")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("be")
    sp.add_argument("--nodes", type=_float_list, required=True)
    sp.add_argument("--eps", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_be)

    sp = sub.add_parser("variation")
    sp.add_argument("--nodes", type=_float_list, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--f", type=_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_variation)

    sp = sub.add_parser("index")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_index, grid_per_eps=100)

    sp = sub.add_parser("gamma-sweep")
    sp.add_argument("--nodes", type=_float_list, required=True)
    sp.add_argument("--eps", type=_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_gamma_sweep)

    sp = sub.add_parser("profiles")
    sp.add_argument("--stride", type=float, default=0.1,
                    help="output sampling step in t")
    _add_common(sp)
    sp.set_defaults(func=_cmd_profiles)

    sp = sub.add_parser("two-node-scan")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--grid", type=_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_two_node_scan)

    sp = sub.add_parser("cutoff-nd")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_cutoff_nd)

    sp = sub.add_parser("gap-sweep")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--eps", type=_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_gap_sweep)

    sp = sub.add_parser("lipschitz")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--eps", type=_float_list, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_lipschitz)

    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BECircleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
