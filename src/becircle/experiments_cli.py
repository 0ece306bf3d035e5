"""The command line: argument parsing and record writing for the experiments
(gamma-convergence sweeps, index tables, profile dumps, non-existence scans).
JSON records (sorted keys, reals in the shortest repr that round-trips) and
CSV tables (reals to 17 significant digits); golden files regenerate
byte-identically with ``BECIRCLE_REGEN=1 pytest tests/test_cli.py``.

In-process ``main`` calls share one parser, built on the first call, since
building it costs more than a small record; ``build_parser()`` returns a
fresh one, so a caller who changes the parser it got cannot change ``main``.
"""
import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .balanced_energy import (NodeConfig, broken_transition, dirichlet_gap,
                              first_variation, gamma_sweep, index_table)
from .errors import BECircleError, DomainError
from .nonexistence import CutoffSpec, cutoff_energy, two_node_scan
from .profiles import (DEFAULT_H, DEFAULT_T, halfline, profile_constants,
                       profile_omega, profile_rho, profile_tau_geom,
                       profile_tau_lambda, profile_w)
from .solver_1d import (dirichlet_arc, existence_threshold, lipschitz_scan,
                        solve_dirichlet)


# ---------------------------------------------------------------------------
# record plumbing

def _meta(args):
    return {
        "grid_per_eps": getattr(args, "grid_per_eps", 50),
        "tol": getattr(args, "tol", 1e-12),
        "T": getattr(args, "T", DEFAULT_T),
        "version": __version__,
    }


def _write_record(args, experiment, params, results):
    # json writes float subclasses (np.float64) with float.__repr__; numpy
    # arrays, integers and bools fall through to tolist()
    rec = {"experiment": experiment, "params": params, "results": results,
           "meta": _meta(args)}
    _write_text(args, [json.dumps(rec, sort_keys=True, indent=1,
                                  default=lambda obj: obj.tolist())])


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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BECircleError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        print(text, end="")


def _verdict(ok, claim):
    """0 if ok, else 2 after printing `assertion failed: <claim>` to stderr."""
    if ok:
        return 0
    print(f"assertion failed: {claim}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args):
    sol = solve_dirichlet(args.L, args.eps, points_per_eps=args.grid_per_eps,
                          tol=args.tol)
    _write_record(args, "solve", {"L": args.L, "eps": args.eps}, {
        "lam": sol.lam, "energy": sol.energy,
        "slope_left": sol.slope_left, "slope_right": sol.slope_right,
        "max": float(np.max(sol.u.values)),
        "threshold": existence_threshold(args.L),
    })
    return 0


def _cmd_be(args):
    config = NodeConfig(np.array(args.nodes))
    bt = broken_transition(config, args.eps, points_per_eps=args.grid_per_eps)
    _write_record(args, "be", {"nodes": args.nodes, "eps": args.eps}, {
        "be": bt.be,
        "piece_energies": [p.energy for p in bt.pieces],
        "piece_lams": [p.lam for p in bt.pieces],
    })
    return 0


def _cmd_variation(args):
    config = NodeConfig(np.array(args.nodes))
    fv = first_variation(config, args.eps, np.array(args.f),
                         points_per_eps=args.grid_per_eps)
    _write_record(args, "variation",
                 {"nodes": args.nodes, "eps": args.eps, "f": args.f},
                 {"first_variation": fv})
    return 0


def _cmd_index(args):
    table = index_table([args.p], [args.eps], points_per_eps=args.grid_per_eps)
    _write_record(args, "index", {"p": args.p, "eps": args.eps}, table)
    return _verdict(table["all_match_S1MorseIndexTheorem"], "S1MorseIndexTheorem")


def _cmd_gamma_sweep(args):
    config = NodeConfig(np.array(args.nodes))
    res = gamma_sweep(config, args.eps, points_per_eps=args.grid_per_eps)
    _write_record(args, "gamma-sweep", {"nodes": args.nodes, "eps": args.eps}, res)
    return _verdict(all(r["be_below_comparator"] for r in res["rows"]),
                    "GammaConSimple comparator")


def _cmd_profiles(args):
    if not 0.0 < args.stride < math.inf:
        raise DomainError(f"--stride must be positive and finite, got {args.stride}")
    T, h = args.T, DEFAULT_H
    w = profile_w(T, h)
    rho = profile_rho(T, h)
    tg = profile_tau_geom(T, h)
    tl = profile_tau_lambda(T, h)
    om = profile_omega(T, h)
    t, g = halfline(T, h)
    kl = -tl.values                 # kappa_lambda = -tau_lambda, bit for bit
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
    above = bool(np.all(scan.gap > 0))
    if args.format == "csv":
        rows = [[float(p), float(b), float(g)]
                for p, b, g in zip(scan.p, scan.be, scan.gap)]
        _write_text(args, _csv_lines(["p", "be", "gap"], rows))
    else:
        _write_record(args, "two-node-scan", {"eps": args.eps, "grid": args.grid}, {
            "p": list(scan.p), "be": list(scan.be), "gap": list(scan.gap),
            "reference": scan.reference,
            "infimum": float(np.min(scan.be)),
            "dropped": [list(d) for d in scan.dropped],
            "all_above_reference": above,
        })
    return _verdict(above, "NoAbsoluteMinimizerS1")


def _cmd_cutoff_nd(args):
    spec = CutoffSpec(n=args.n, k=args.k, eps=args.eps, delta=args.delta)
    _write_record(args, "cutoff-nd",
                 {"n": args.n, "k": args.k, "eps": args.eps, "delta": spec.delta},
                 {"energy": cutoff_energy(spec)})
    return 0


def _cmd_gap_sweep(args):
    if not args.eps:
        raise DomainError("gap-sweep needs at least one eps")
    for e in args.eps:           # every eps is checked before any arc is solved
        dirichlet_arc(args.L, e, args.grid_per_eps)
    gaps = [dirichlet_gap(e, args.L, points_per_eps=args.grid_per_eps)
            for e in args.eps]
    positive = all(g > 0 for g in gaps)
    _write_record(args, "gap-sweep", {"L": args.L, "eps": args.eps}, {
        "gaps": gaps, "all_positive": positive,
    })
    return _verdict(positive, "LinearizedOperatorInverseThm")


def _cmd_lipschitz(args):
    scan = lipschitz_scan(args.L, args.eps, points_per_eps=args.grid_per_eps)
    if args.format == "csv":
        rows = [[float(e), float(g)] for e, g in zip(scan.eps, scan.energies)]
        _write_text(args, _csv_lines(["eps", "energy"], rows))
        return 0
    _write_record(args, "lipschitz", {"L": args.L, "eps": args.eps}, {
        "energies": list(scan.energies),
        "quotients": list(scan.quotients),
        "max_quotient": scan.max_quotient,
    })
    return 0


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _add_common(sp):
    sp.add_argument("--grid-per-eps", dest="grid_per_eps", type=int, default=50)
    sp.add_argument("--out", default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="becircle",
                                 description="balanced-energy experiments on the circle")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="Newton residual tolerance")
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
    sp.add_argument("--T", type=float, default=DEFAULT_T,
                    help="half-line truncation length")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_profiles)

    sp = sub.add_parser("two-node-scan")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--grid", type=_float_list, required=True)
    _add_common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_two_node_scan)

    sp = sub.add_parser("cutoff-nd")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--out", default=None)
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
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_lipschitz)

    return ap


@functools.cache
def _parser():
    """The parser every `main` call reads; argparse does not change it while
    parsing, and each parse returns a fresh namespace."""
    return build_parser()


def main(argv=None):
    parser = _parser()
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
