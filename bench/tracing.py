"""Span tracer for the traced pass of the benchmark.

The tracer wraps the public functions of the becircle modules from outside
the package: every binding in a ``becircle.*`` namespace that *is* a target
function is replaced by a wrapper (so imported bindings such as
``balanced_energy.eig_sturm`` or ``solver_1d.ac_family_mod`` are caught too),
and every binding is put back on exit.  Spans are kept in memory as
``(layer, start, end, parent)`` tuples; a layer's self time is the sum of its
spans' durations minus the parts covered by their child spans.

``scalar_field`` and the quadrature kernels of ``bvp_engine`` are array
helpers that run inside every caller; they are not wrapped, so their time
lands in the caller's self time.  Two of them are wrapped as counters only
(no span): ``potential_d1`` (Newton residual evaluations) and scipy's
``solve_banded`` as bound in ``bvp_engine`` (bordered periodic counts).
"""
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# modules whose every public function is one span of the module's layer
MODULE_LAYERS = ("elliptic_oracle", "solver_1d", "balanced_energy", "profiles",
                 "nonexistence", "experiments_cli")

# bvp_engine is split in two layers; its quadrature helpers are not wrapped
BVP_LAYERS = {
    "newton_semilinear": "bvp_engine.newton",
    "solve_tridiagonal": "bvp_engine.newton",
    "eig_sturm": "bvp_engine.eig",
}

LAYERS = ("elliptic_oracle", "bvp_engine.newton", "bvp_engine.eig") + MODULE_LAYERS[1:]

# the eigensolver's dense special case: periodic operators below this size
DENSE_DIM = 64

COUNTS = ("elliptic_oracle.points", "elliptic_oracle.modulus_calls",
          "bvp_engine.newton.calls", "bvp_engine.newton.grid_points",
          "bvp_engine.newton.linear_solves", "bvp_engine.newton.residual_evals",
          "bvp_engine.eig.calls", "bvp_engine.eig.dim_total",
          "bvp_engine.eig.dense_calls", "bvp_engine.eig.banded_solves",
          "solver_1d.solve_dirichlet.calls", "profiles.calls")

# every per-layer metric with its unit; record_bytes and overhead_frac are
# filled in by the runner, which sees the records and the untraced passes
UNITS = {**{f"{layer}.self_s": "s" for layer in LAYERS},
         **dict.fromkeys(COUNTS, "count"),
         "bvp_engine.newton.evals_per_solve": "ratio",
         "experiments_cli.record_bytes": "bytes",
         "trace.wall_s": "s", "trace.unattributed_s": "s",
         "trace.overhead_frac": "ratio"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.depth = Counter()
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self._saved = []

    def _span(self, layer, fn, count=None):
        spans, stack, depth = self.spans, self.stack, self.depth

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[layer] -= 1
                stack.pop()
                spans[idx] = (layer, t0, t1, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, layer, name):
        depth, counts = self.depth, self.counts

        def wrapper(*args, **kwargs):
            if depth[layer]:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_hooks(self):
        c = self.counts

        def oracle_points(args, kwargs):
            x = args[0] if args else kwargs["x"]
            c["elliptic_oracle.points"] += getattr(x, "size", 1)

        def modulus(args, kwargs):
            c["elliptic_oracle.modulus_calls"] += 1

        def newton(args, kwargs):
            grid = args[0] if args else kwargs["grid"]
            c["bvp_engine.newton.calls"] += 1
            c["bvp_engine.newton.grid_points"] += grid.n + 2

        def linear_solve(args, kwargs):
            if self.depth["bvp_engine.newton"]:
                c["bvp_engine.newton.linear_solves"] += 1

        def eig(args, kwargs):
            op = args[0] if args else kwargs["op"]
            c["bvp_engine.eig.calls"] += 1
            c["bvp_engine.eig.dim_total"] += op.dim
            if op.boundary == "periodic" and op.dim < DENSE_DIM:
                c["bvp_engine.eig.dense_calls"] += 1

        def solve_dirichlet(args, kwargs):
            c["solver_1d.solve_dirichlet.calls"] += 1

        return {
            ("elliptic_oracle", "ac_family_mod"): oracle_points,
            ("elliptic_oracle", "modulus_for"): modulus,
            ("bvp_engine", "newton_semilinear"): newton,
            ("bvp_engine", "solve_tridiagonal"): linear_solve,
            ("bvp_engine", "eig_sturm"): eig,
            ("solver_1d", "solve_dirichlet"): solve_dirichlet,
        }

    def _targets(self):
        """(function, wrapper) pairs for every traced binding."""
        hooks = self._count_hooks()
        out = []
        for name in MODULE_LAYERS:
            mod = sys.modules[f"becircle.{name}"]
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    out.append((fn, self._span(name, fn, hooks.get((name, fname)))))
        bvp = sys.modules["becircle.bvp_engine"]
        for fname, layer in BVP_LAYERS.items():
            fn = getattr(bvp, fname)
            out.append((fn, self._span(layer, fn, hooks.get(("bvp_engine", fname)))))
        out.append((bvp.potential_d1, self._counter(
            bvp.potential_d1, "bvp_engine.newton", "bvp_engine.newton.residual_evals")))
        out.append((bvp.solve_banded, self._counter(
            bvp.solve_banded, "bvp_engine.eig", "bvp_engine.eig.banded_solves")))
        return out

    @contextmanager
    def installed(self):
        """Patch every binding of every target in the package, restore on exit."""
        replace = {id(fn): (fn, w) for fn, w in self._targets()}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "becircle" or n.startswith("becircle.")]
        try:
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    hit = replace.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._saved.append((mod, name, val))
                        setattr(mod, name, hit[1])
            yield self
        finally:
            while self._saved:
                mod, name, val = self._saved.pop()
                setattr(mod, name, val)

    def layer_metrics(self, wall_s):
        """Self time per layer, span counts, and the reconciliation remainder."""
        child = [0.0] * len(self.spans)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (layer, t0, t1, _) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
        out = {f"{layer}.self_s": s for layer, s in self_s.items()}
        out.update(self.counts)
        out["profiles.calls"] = sum(span[0] == "profiles" for span in self.spans)
        out["bvp_engine.newton.evals_per_solve"] = (
            self.counts["bvp_engine.newton.residual_evals"]
            / max(1, self.counts["bvp_engine.newton.linear_solves"]))
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(self_s.values())
        return out
