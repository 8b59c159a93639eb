"""Spans and counts recorded from outside sturmlab.

`Tracer.installed()` replaces the public functions of each layer by timing
wrappers, in every sturmlab module namespace that binds them (the CLI imports
`verify_identities`, `xi_value` and others into its own namespace, so each
name is patched where it is looked up), and adds counting hooks to a few
methods.  Spans (name, start, end, parent) and counts stay in memory; the
caller writes them out when the run ends.  The originals are restored on exit.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import defaultdict

# (module, function): the layer boundaries that get a span
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("approx", "verify_identities"),
    ("approx", "contents_report"),
    ("matseq", "check_mult_growth"),
    ("matseq", "delta_estimate"),
    ("xi", "xi_value"),
    ("xi", "bl_xi_oracle"),
    ("xi", "properness_check"),
    ("sturm", "quantities"),
    ("paramgeo", "predicted_system"),
    ("paramgeo", "validate_3system"),
    ("paramgeo", "minima_candidates"),
    ("paramgeo", "minima_bruteforce"),
    ("paramgeo", "duality_check"),
    ("kernels", "collect_primal"),
    ("kernels", "collect_dual"),
    ("exponents", "empirical"),
    ("exponents", "closed_form"),
)

# counts kept as sums (per round in the report) and as maxima
SUM_COUNTS = ("exactlin.matmul.calls", "approx.identity_instances", "xi.terms",
              "paramgeo.candidate_points", "kernels.points_returned",
              "kernels.points_visited", "cli.output_bytes")
MAX_COUNTS = ("exactlin.max_bits", "paramgeo.max_prec_bits")


def _primal_visited(args) -> int:
    """Points the primal kernel evaluates: (2R+1) x1 rows, each a vector of
    2R+1 x2 values shifted over `span` x0 offsets."""
    _, _, q, R, cutoff = args
    span = int(2 * min(cutoff * math.exp(-q), cutoff) + 3)
    return (2 * R + 1) ** 2 * span


def _dual_visited(args) -> int:
    """Points the dual kernel evaluates: 2R0+1 values of x0 times a
    (2 span + 1)^2 window of (x1, x2)."""
    xi, _, _, R0, cutoff = args
    span = int(cutoff * math.sqrt(1.0 + xi * xi)) + 2
    return (2 * R0 + 1) * (2 * span + 1) ** 2


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def gauge_max(self, name, v):
        if v > self.counts[name]:
            self.counts[name] = v

    def _wrap(self, name, fn, on_result=None):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions and count hooks; restore on exit."""
        from sturmlab import exactlin, approx, paramgeo

        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        result_hooks = {
            "approx.verify_identities":
                lambda a, r: self.count("approx.identity_instances", sum(r.checks.values())),
            "xi.xi_value": lambda a, r: self.count("xi.terms", r.index),
            "xi.bl_xi_oracle": lambda a, r: self.count("xi.terms", r.index),
            "kernels.collect_primal": lambda a, r: (
                self.count("kernels.points_returned", len(r[0])),
                self.count("kernels.points_visited", _primal_visited(a))),
            "kernels.collect_dual": lambda a, r: (
                self.count("kernels.points_returned", len(r[0])),
                self.count("kernels.points_visited", _dual_visited(a))),
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "sturmlab" or n.startswith("sturmlab.")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            orig = getattr(sys.modules[f"sturmlab.{mod_name}"], fn_name)
            wrapper = self._wrap(name, orig, result_hooks.get(name))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        patch(m, attr, wrapper)

        matmul = exactlin.IntMat2.__matmul__

        def counted_matmul(a, b):
            self.counts["exactlin.matmul.calls"] += 1
            return matmul(a, b)

        patch(exactlin.IntMat2, "__matmul__", counted_matmul)

        ymat = approx.YSeq.mat
        top = {}

        def y_mat(ys, i):
            m = ymat(ys, i)
            # entries grow with i, so only a new highest index can raise the maximum
            if i > top.get(id(ys), -3):
                top[id(ys)] = i
                self.gauge_max("exactlin.max_bits", m.sup_norm().bit_length())
            return m

        patch(approx.YSeq, "mat", y_mat)

        cb = paramgeo.CandidateBuilder
        prec_for, base_points, completions = cb.prec_for, cb.base_points, cb._completions

        def counted_prec_for(builder, q):
            p = prec_for(builder, q)
            self.gauge_max("paramgeo.max_prec_bits", p)
            return p

        def counted_base_points(builder, q):
            pts = base_points(builder, q)
            self.count("paramgeo.candidate_points", len(pts))
            return pts

        def counted_completions(builder, *args, **kwargs):
            pts = completions(builder, *args, **kwargs)
            self.count("paramgeo.candidate_points", len(pts))
            return pts

        patch(cb, "prec_for", counted_prec_for)
        patch(cb, "base_points", counted_base_points)
        patch(cb, "_completions", counted_completions)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- reporting -----------------------------------------------------------
    def self_times(self) -> dict:
        """name -> (self seconds, calls); self time is a span's duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start - child[idx]
            out[name][1] += 1
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}
