"""Per-layer spans around cubasquare's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every attribute of a
``cubasquare`` module (or class) that holds it, so calls are caught
whichever module they go through; ``uninstall`` puts the originals back.
A span records its inclusive time and its self time (inclusive time minus
the time of the spans it encloses).  A tracer made with ``memory=True``
installs only the spans that report a peak and records, for each, the
tracemalloc peak above the memory traced at its entry; tracemalloc runs only
while such a span is open.  It is kept apart from the timing spans because
tracemalloc slows every allocation it sees (tripling interp-eval's call
time).
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

CONVERGED_RESID = 1e-10


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.peak_bytes = defaultdict(float)
        self._stack = []
        self._mem_open = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _fold_peak(self):
        p = tracemalloc.get_traced_memory()[1]
        for f in self._mem_open:
            f["max"] = max(f["max"], p)
        tracemalloc.reset_peak()

    def span(self, group, fn, count=None, peak=False):
        """fn wrapped in a span of ``group``; ``count(result, args)`` adds to
        the counters after each call; ``peak`` spans track tracemalloc."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = {"t0": 0.0, "child": 0.0}
            if peak:
                if tr._mem_open:
                    tr._fold_peak()
                else:
                    tracemalloc.start()
                frame["base"] = frame["max"] = tracemalloc.get_traced_memory()[0]
                tr._mem_open.append(frame)
            tr._stack.append(frame)
            frame["t0"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - frame["t0"]
                tr._stack.pop()
                if tr._stack:
                    tr._stack[-1]["child"] += dt
                tr.total_s[group] += dt
                tr.self_s[group] += dt - frame["child"]
                tr.calls[group] += 1
                if peak:
                    tr._fold_peak()
                    tr._mem_open.pop()
                    if not tr._mem_open:
                        tracemalloc.stop()
                    tr.peak_bytes[group] = max(tr.peak_bytes[group], frame["max"] - frame["base"])
            if count is not None:
                for key, v in count(out, args).items():
                    tr.counts[key] += v
            return out

        return wrapper

    def lm_span(self, least_squares):
        """scipy.optimize.least_squares with its residual and Jacobian callables
        timed as their own spans and nfev, njev and convergence counted."""
        tr = self

        @functools.wraps(least_squares)
        def run(fun, x0, *args, **kwargs):
            fun = tr.span("discover.residual", fun)
            if callable(kwargs.get("jac")):
                kwargs["jac"] = tr.span("discover.jacobian", kwargs["jac"])
            res = least_squares(fun, x0, *args, **kwargs)
            tr.counts["discover.lm.nfev"] += res.nfev
            tr.counts["discover.lm.njev"] += res.njev or 0
            tr.counts["discover.lm.converged"] += float(np.abs(res.fun).max() <= CONVERGED_RESID)
            return res

        return self.span("discover.lm", run)

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "cubasquare" or name.startswith("cubasquare."))]
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, original))

    def _replace_method(self, cls, name, wrapper):
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self):
        from cubasquare import basis2d, cli, cubature, discover, interp, nodes, univariate, weights

        def table_values(out, args):
            return {"univariate.table.values": (args[2] + 1) * np.size(args[3])}

        def cheb_values(out, args):
            return {"univariate.table.values": (max(args[0], 0) + 1) * np.size(args[1])}

        def size_of(key):
            return lambda out, args: {key: np.size(out)}

        def oracle_points(out, args):
            return {"weights.oracle.points": np.size(out[0])}

        plan = [
            ("cli.main", [cli.main], None, False),
            ("nodes.build", [nodes.gauss_u_nodes, nodes.min_t_nodes_even, nodes.near_min_t_nodes_odd,
                             nodes.padua_points, nodes.gencheb_nodes], None, False),
            ("univariate.table", [univariate.jacobi_normalized_table,
                                  univariate.jacobi_normalized_table_with_derivative], table_values, False),
            ("univariate.table", [univariate.eval_chebyshev_t, univariate.eval_chebyshev_u], cheb_values, False),
            ("weights.oracle", [weights.tensor_oracle], oracle_points, False),
            ("weights.oracle", [weights.moment_table, weights.moment, weights.mass], None, False),
            ("basis2d.kernel_star", [basis2d.kernel_star_matrix], size_of("basis2d.kernel_star.pairs"), True),
            ("cubature.weights", [cubature.weights_from_kernel, cubature.weights_from_vandermonde], None, False),
            ("cubature.exactness", [cubature.exactness_check], None, False),
            ("interp.lebesgue", [interp.lebesgue_constant], None, True),
            ("interp.interpolant.build", [interp.interpolate_kernel, interp.interpolate_padua], None, False),
            ("discover.common_zeros", [discover.common_zeros], None, False),
        ]
        for group, fns, count, peak in plan:
            if peak or not self.memory:
                for fn in fns:
                    self._replace(fn, self.span(group, fn, count, peak and self.memory))
        if self.memory:
            return
        self._replace(discover.least_squares, self.lm_span(discover.least_squares))
        eval_values = size_of("basis2d.eval_upto.values")
        for cls in basis2d.OrthoBasis2D.__subclasses__():
            if "eval_upto" in cls.__dict__:
                self._replace_method(cls, "eval_upto",
                                     self.span("basis2d.eval_upto", cls.__dict__["eval_upto"], eval_values))
        self._replace_method(interp.Interpolant, "__call__",
                             self.span("interp.interpolant.call", interp.Interpolant.__call__))

    def uninstall(self):
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    # -- report ------------------------------------------------------------

    def metrics(self, rounds: int, memory: "Tracer") -> dict:
        """Per-layer metrics: times and counts per traced round, peaks from
        the ``memory`` tracer."""
        s = {k: v / rounds for k, v in self.self_s.items()}
        c = {k: v / rounds for k, v in self.counts.items()}
        n = {k: v / rounds for k, v in self.calls.items()}
        lm_calls = self.calls["discover.lm"]
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for g in ("cli.main", "nodes.build", "univariate.table", "weights.oracle", "basis2d.eval_upto",
                  "basis2d.kernel_star", "cubature.weights", "cubature.exactness", "interp.lebesgue",
                  "discover.residual", "discover.jacobian", "discover.common_zeros"):
            put(f"{g}.self_s", s.get(g, 0.0), "s")
        put("univariate.table.values", c.get("univariate.table.values", 0), "count")
        put("weights.oracle.points", c.get("weights.oracle.points", 0), "count")
        put("basis2d.eval_upto.values", c.get("basis2d.eval_upto.values", 0), "count")
        put("basis2d.kernel_star.pairs", c.get("basis2d.kernel_star.pairs", 0), "count")
        put("basis2d.kernel_star.peak_mb", memory.peak_bytes["basis2d.kernel_star"] / 2**20, "MB")
        put("cubature.exactness.calls", n.get("cubature.exactness", 0), "count")
        put("interp.lebesgue.peak_mb", memory.peak_bytes["interp.lebesgue"] / 2**20, "MB")
        put("interp.interpolant.build_s", self.total_s["interp.interpolant.build"] / rounds, "s")
        put("interp.interpolant.call_s", self.total_s["interp.interpolant.call"] / rounds, "s")
        put("interp.interpolant.calls", n.get("interp.interpolant.call", 0), "count")
        put("discover.lm.calls", n.get("discover.lm", 0), "count")
        put("discover.lm.nfev", c.get("discover.lm.nfev", 0), "count")
        put("discover.lm.njev", c.get("discover.lm.njev", 0), "count")
        put("discover.lm.converged_ratio",
            self.counts["discover.lm.converged"] / lm_calls if lm_calls else 0.0, "ratio")
        put("discover.common_zeros.calls", n.get("discover.common_zeros", 0), "count")
        return out
