"""Parametric geometry: trajectories, the predicted 3-system with exact-log
breakpoint algebra, validity checking, brute-force and candidate successive
minima, Mahler duality checks, comparison reports, and CSV/SVG export.

Throughout this module norms are Euclidean.  For a nonzero integer point x and
u = (1, xi, xi^2):

    L_x(q)  = max(log|x|, log|x.u| + q)        (primal trajectory)
    L*_x(q) = max(log|x^u|, log|x| - q)        (dual trajectory)

L_j(q) (j = 1,2,3) are the logs of the successive minima of the corresponding
convex bodies with respect to Z^3.  Both sides go through one code path
indexed by PRIMAL/DUAL: the bodies max(|x|, e^q|x.u|) and max(|x^u|, e^-q|x|),
with the quadratic forms |x|^2 + e^{2q}(x.u)^2 and |x^u|^2 + e^{-2q}|x|^2.
Each body has one exact definition, the integer terms of `kernels._size_keys`:
they rank points for the candidate and the brute-force minima and fix the
centres of plane completions; logarithms are taken only for the reported
points.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath

from .exactlin import DEFAULT_PRECISION, SymVec
from .approx import Bundle
from .matseq import HatW, resolve_delta
from . import kernels
from .kernels import _size_keys


# ---------------------------------------------------------------------------
# exact-log linear expressions
# ---------------------------------------------------------------------------

class LinExpr:
    """Exact linear combination  sum  c[(s, p)] * delta^p * anchor_s  where
    anchor_0 = log W-hat_{k0-1}, anchor_1 = log W-hat_{k0}, with Fraction
    coefficients.  Everything in the breakpoint algebra lives here."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = dict(c or {})

    @staticmethod
    def anchor(s: int, coeff=1) -> "LinExpr":
        return LinExpr({(s, 0): Fraction(coeff)})

    def __add__(self, other: "LinExpr") -> "LinExpr":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) + v
            if out[k] == 0:
                del out[k]
        return LinExpr(out)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, f) -> "LinExpr":
        f = Fraction(f)
        if f == 0:
            return LinExpr()
        return LinExpr({k: v * f for k, v in self.c.items()})

    def mul_delta_poly(self, poly: dict) -> "LinExpr":
        """Multiply by sum_p poly[p] * delta^p."""
        out = {}
        for (s, p), v in self.c.items():
            for dp, f in poly.items():
                key = (s, p + dp)
                out[key] = out.get(key, Fraction(0)) + v * Fraction(f)
        return LinExpr({k: v for k, v in out.items() if v != 0})

    def __eq__(self, other):
        return isinstance(other, LinExpr) and self.c == other.c

    def eval(self, a0, a1, delta):
        total = mpmath.mpf(0)
        anchors = (a0, a1)
        for (s, p), v in self.c.items():
            term = mpmath.mpf(v.numerator) / v.denominator * anchors[s]
            if p:
                term *= delta ** p
            total += term
        return total

    def __repr__(self):
        return f"LinExpr({self.c})"


# ---------------------------------------------------------------------------
# piecewise-linear component functions
# ---------------------------------------------------------------------------

@dataclass
class PLFunc:
    """Continuous piecewise-linear function with one kink:
    value = left_a + left_b * q  for q <= kink_q, right_a + right_b * q after."""

    left_a: object
    left_b: int
    kink_q: object
    right_a: object
    right_b: int

    def value(self, q):
        if q > self.kink_q:
            return self.right_a + self.right_b * q
        return self.left_a + self.left_b * q

    def slope(self, q):
        """Slope on the smooth piece containing q (right-continuous choice)."""
        if q >= self.kink_q:
            return self.right_b
        return self.left_b

    def kinks_in(self, q_lo, q_hi):
        if q_lo < self.kink_q < q_hi:
            return [self.kink_q]
        return []


@dataclass
class Window:
    q_lo: object
    q_hi: object
    funcs: list          # three PLFunc (unsorted components)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the predicted system
# ---------------------------------------------------------------------------

@dataclass
class HatData:
    i: int
    k: int
    logY: LinExpr
    logZ: LinExpr
    logE: LinExpr
    logEstar: LinExpr
    q: LinExpr
    c: LinExpr
    a: LinExpr          # -hatL*_i meets hatL_{t_{k+1}} (left end of I_i)
    b: LinExpr          # -hatL*_i meets hatL_i (right end of I_i)


class SystemBreakpoints:
    """Breakpoint data and the map P = Phi_3(hatL_{t_{k+1}}, -hatL*_{i+1},
    hatL_{i+1}) on [c_i, c_{i+1}), for windows i in [t_{k_lo}-1, t_{k_hi}-2]."""

    def __init__(self, bundle: Bundle, k_range, delta=None, prec: int = DEFAULT_PRECISION):
        self.bundle = bundle
        self.prog = bundle.prog
        self.prec = prec
        self.k_lo, self.k_hi = k_range
        if self.k_hi < self.k_lo + 2:
            raise ValueError("k_range must span at least two indices")
        self.hatw = HatW(bundle.seq, k0=max(2, self.k_lo), prec=prec)
        # Rescale the anchor pair by the limit of log W-hat_k / log |w_k| so
        # that the exact-recurrence values track the true log norms up to O(1)
        # (the raw recurrence drifts linearly because the per-step
        # multiplicativity defect compounds).
        K = self.k_hi + 4
        with mpmath.workprec(prec):
            rho = self.hatw.log(K) / bundle.seq.log_norm(K, prec)
            self._anchor_vals = (self.hatw.anchors[0] / rho,
                                 self.hatw.anchors[1] / rho)
            self.hat_scale = rho
            if delta is None:
                choice = resolve_delta(bundle.seq, prec)
                self.delta, self.delta_source = choice.value, choice.source
            else:
                self.delta = mpmath.mpf(str(delta)) if not isinstance(delta, mpmath.mpf) else delta
                self.delta_source = "forced"
        self._idx = {}
        self._wexp = {}
        self._d_k = {}
        for i in range(self.prog.t(self.k_lo) - 1, self.prog.t(self.k_hi) + 1):
            self._idx[i] = self._build(i)
        for k in range(self.k_lo, self.k_hi):
            # hatL_{t_k} (rising) meets hatL_{t_{k+1}} (flat)
            self._d_k[k] = (self._wk(k).scale(Fraction(3)) + self._wk(k - 1)
                            ).mul_delta_poly({0: 1}) - (
                self._wk(k) + self._wk(k - 1)).mul_delta_poly({1: 1})
        self._windows = [self._window(i) for i in self.window_index_range()]
        self._gray = []          # the gray intervals, (i + 1, b_i, a_{i+1})
        for i in sorted(self._idx)[:-1]:        # the indices are consecutive
            b, a = self.num(self._idx[i].b), self.num(self._idx[i + 1].a)
            if a >= b:
                self._gray.append((i + 1, b, a))

    # -- symbolic builders --------------------------------------------------
    def _wk(self, k: int) -> LinExpr:
        if k not in self._wexp:
            a, b = self.hatw.coeffs(k)
            e = LinExpr()
            if a:
                e = e + LinExpr.anchor(0, a)
            if b:
                e = e + LinExpr.anchor(1, b)
            self._wexp[k] = e
        return self._wexp[k]

    def _build(self, i: int) -> HatData:
        k, l = self.prog.block_of(i)
        wk, wk1 = self._wk(k), self._wk(k - 1)
        logY = wk.scale(l + 1) + wk1
        logZ = wk.scale(l) + wk1
        # log E_i = ((delta-1)(l+1) - 1) log W_k + (delta-1) log W_{k-1}
        logE = (wk.mul_delta_poly({0: -(l + 1) - 1, 1: l + 1})
                + wk1.mul_delta_poly({0: -1, 1: 1}))
        logEstar = logY.mul_delta_poly({0: -1, 1: 1})
        q_i = logY.mul_delta_poly({0: 2, 1: -1})
        c_i = q_i + wk
        a_i = logY + self._wk(k)          # log Y_i + log Z-hat_{t_{k+1}}
        b_i = logEstar.scale(-1) - logE
        return HatData(i=i, k=k, logY=logY, logZ=logZ, logE=logE,
                       logEstar=logEstar, q=q_i, c=c_i, a=a_i, b=b_i)

    def data(self, i: int) -> HatData:
        return self._idx[i]

    def num(self, e: LinExpr):
        with mpmath.workprec(self.prec):
            return e.eval(self._anchor_vals[0], self._anchor_vals[1], self.delta)

    # -- component functions ------------------------------------------------
    def hatL(self, i: int) -> PLFunc:
        d = self._idx[i]
        return PLFunc(left_a=self.num(d.logZ), left_b=0, kink_q=self.num(d.q),
                      right_a=self.num(d.logE), right_b=1)

    def neg_hatLstar(self, i: int) -> PLFunc:
        d = self._idx[i]
        return PLFunc(left_a=-self.num(d.logY), left_b=1, kink_q=self.num(d.q),
                      right_a=-self.num(d.logEstar), right_b=0)

    # -- windows ------------------------------------------------------------
    def window_index_range(self):
        return range(self.prog.t(self.k_lo) - 1, self.prog.t(self.k_hi) - 1)

    def _window(self, i: int) -> Window:
        k = self.prog.block_of(i + 1)[0]
        return Window(
            q_lo=self.num(self._idx[i].c),
            q_hi=self.num(self._idx[i + 1].c),
            funcs=[self.hatL(self.prog.t(k + 1)), self.neg_hatLstar(i + 1),
                   self.hatL(i + 1)],
            meta={"i": i, "k": k},
        )

    def window(self, i: int) -> Window:
        return self._windows[i - self.window_index_range().start]

    def pieces(self):
        return list(self._windows)

    @property
    def span(self):
        lo = self.num(self._idx[self.prog.t(self.k_lo) - 1].c)
        hi = self.num(self._idx[self.prog.t(self.k_hi) - 1].c)
        return (lo, hi)

    def P(self, q):
        """Sorted triple (P1 <= P2 <= P3) at q; q must lie in the span."""
        for w in self._windows:
            if w.q_lo <= q <= w.q_hi:
                return tuple(sorted(f.value(q) for f in w.funcs))
        raise ValueError(f"q = {q} outside the covered span {self.span}")

    # -- special abscissas --------------------------------------------------
    def d_k(self, k: int):
        return self.num(self._d_k[k])

    def breakpoints(self):
        """kind -> list of (k, q) numeric abscissas used by the estimators."""
        out = {"q_t": [], "c_t": [], "c_end": [], "d": [], "a_t": [], "b_t": [],
               "q_t1": []}
        lo, hi = self.span
        for k in range(self.k_lo, self.k_hi):
            tk = self.prog.t(k)
            for kind, expr in (
                ("q_t", self._idx[tk].q),
                ("c_t", self._idx[tk].c),
                ("c_end", self._idx[self.prog.t(k + 1) - 1].c),
                ("a_t", self._idx[tk].a),
                ("b_t", self._idx[tk].b),
                ("q_t1", self._idx[tk + 1].q if tk + 1 in self._idx else None),
            ):
                if expr is None:
                    continue
                q = self.num(expr)
                if lo <= q <= hi:
                    out[kind].append((k, q))
            q = self.d_k(k)
            if lo <= q <= hi:
                out["d"].append((k, q))
        return out

    def gray_intervals(self):
        """I'_{i+1} = [b_i, a_{i+1}] for consecutive indices in range."""
        return list(self._gray)

    def in_gray(self, q, margin=0.0) -> bool:
        return any(b - margin <= q <= a + margin for _, b, a in self._gray)

    def I_intervals(self):
        """I_i = [a_i, b_i] (where the top component of P is -hatL*_i)."""
        out = []
        for i in sorted(self._idx):
            a, b = self.num(self._idx[i].a), self.num(self._idx[i].b)
            if b >= a:
                out.append((i, a, b))
        return out


def predicted_system(bundle: Bundle, k_range, delta=None,
                     prec: int = DEFAULT_PRECISION) -> SystemBreakpoints:
    return SystemBreakpoints(bundle, k_range, delta=delta, prec=prec)


# ---------------------------------------------------------------------------
# validity checking
# ---------------------------------------------------------------------------

@dataclass
class ValidityReport:
    failures: list           # defining conditions 1-3 and continuity
    shape_failures: list     # expected combinatorial shape of the hat-functions

    @property
    def def_conditions_ok(self) -> bool:
        return not self.failures

    @property
    def shape_ok(self) -> bool:
        return not self.shape_failures

    @property
    def valid(self) -> bool:
        return self.def_conditions_ok and self.shape_ok


def _crossings(funcs, q_lo, q_hi):
    """Abscissas in (q_lo, q_hi) where two of the (piecewise) functions cross."""
    pts = set()
    kinks = sorted(set(k for f in funcs for k in f.kinks_in(q_lo, q_hi)))
    grid = [q_lo] + kinks + [q_hi]
    for a, b in zip(grid, grid[1:]):
        mid = (a + b) / 2
        for m in range(3):
            for n in range(m + 1, 3):
                f, g = funcs[m], funcs[n]
                fa = f.value(mid) - g.value(mid)
                sf = f.slope(mid) - g.slope(mid)
                if sf != 0:
                    qx = mid - fa / sf
                    if a < qx < b:
                        pts.add(qx)
    pts.update(kinks)
    return sorted(pts)


def validate_3system(P, tol: float = 1e-9) -> ValidityReport:
    """Check the defining conditions of a 3-system on the covered span, plus
    (for predicted systems) the expected combinatorial shape of the three
    hat-functions; P must provide .pieces() -> [Window].

    One walk over the pieces of the windows, in order.  A piece runs between
    two consecutive kinks or crossings; the sorted (value, slope) list at its
    midpoint gives conditions 1-2 and the rank of its slope-1 component.  At
    each node, condition 3 is checked from the ranks of the two pieces that
    meet there, and continuity where they lie in different windows."""
    tol = mpmath.mpf(tol)
    failures = []
    prev_w = prev_rank = None      # window and slope-1 rank of the previous piece
    for w in P.pieces():
        nodes = [w.q_lo] + _crossings(w.funcs, w.q_lo, w.q_hi) + [w.q_hi]
        for a, b in zip(nodes, nodes[1:]):
            mid = (a + b) / 2
            vals = sorted((f.value(mid), f.slope(mid)) for f in w.funcs)
            if vals[0][0] < -tol:
                failures.append(("nonneg", float(mid), float(vals[0][0])))
            total = sum(v for v, _ in vals)
            if abs(total - mid) > tol * max(1, abs(mid)):
                failures.append(("sum", float(mid), float(total - mid)))
            slopes = [sl for _, sl in vals]
            if sorted(slopes) != [0, 0, 1]:
                failures.append(("slopes", float(mid), slopes))
            rank = next((j for j, sl in enumerate(slopes) if sl == 1), None)
            if prev_w is not None:
                here = sorted(f.value(a) for f in w.funcs)
                bound = tol * max(1, abs(a))
                if prev_w is not w:
                    there = sorted(f.value(prev_w.q_hi) for f in prev_w.funcs)
                    if max(abs(x - y) for x, y in zip(there, here)) > bound:
                        failures.append(("continuity", float(a)))
                r, s = prev_rank, rank
                if r is not None and s is not None and r < s:
                    width = max(here[r:s + 1]) - min(here[r:s + 1])
                    if width > bound:
                        failures.append(("kink", float(a), r, s, float(width)))
            prev_w, prev_rank = w, rank
    shape_failures = _shape_checks(P, tol) if isinstance(P, SystemBreakpoints) else []
    return ValidityReport(failures=failures, shape_failures=shape_failures)


def _shape_checks(P: SystemBreakpoints, tol):
    """Expected combinatorics of the hat-functions on each window: the flat
    level of -hatL* must clear both hatL levels where the construction places
    it on top, and the clearance must not shrink along the window."""
    fails = []
    gaps = []
    for i in P.window_index_range():
        w = P.window(i)
        k = w.meta["k"]
        top, mid_f, low = w.funcs  # hatL_{t_{k+1}}, -hatL*_{i+1}, hatL_{i+1}
        d1 = P.data(i + 1)
        q_next = P.num(d1.q)
        # boundary window (i+1 = t_k): at the window's left end the rising
        # branch of -hatL*_{t_k} must already clear the flat level of hatL_{t_k}
        if i + 1 == P.prog.t(k):
            if mid_f.value(w.q_lo) < low.value(w.q_lo) - tol:
                fails.append(("boundary_mid_below", i + 1,
                              float(mid_f.value(w.q_lo) - low.value(w.q_lo))))
            # log Z-hat_{t_k} <= (1-delta) log Y-hat_{t_k}: the flat middle level
            # must be reachable from below by the bottom component
            lhs = P.num(d1.logZ)
            rhs = -P.num(d1.logEstar)
            if lhs > rhs + tol:
                fails.append(("level_order", i + 1, float(lhs - rhs)))
        # I_{i+1} = [a_{i+1}, b_{i+1}] must be a nonempty subinterval
        a_v, b_v = P.num(d1.a), P.num(d1.b)
        if b_v < a_v - tol:
            fails.append(("I_empty", i + 1, float(b_v - a_v)))
        if a_v < w.q_lo - tol or b_v > w.q_hi + tol:
            fails.append(("I_outside_window", i + 1))
        # g >= 0 also makes -hatL*_{i+1} dominate hatL_{i+1} at its own kink
        g = mid_f.value(q_next) - max(top.value(q_next), low.value(q_next))
        gaps.append(g)
        if g < -tol:
            fails.append(("gap_negative", i + 1, float(g)))
    if len(gaps) >= 2 and gaps[-1] < gaps[0] - tol:
        fails.append(("gap_shrinking", float(gaps[0]), float(gaps[-1])))
    return fails


# ---------------------------------------------------------------------------
# trajectories and minima
# ---------------------------------------------------------------------------

PRIMAL, DUAL = 0, 1      # the two sides, as in (L_x(q), L*_x(q))


def _traj(x, u, q, side):
    """L_x(q) (side PRIMAL) or L*_x(q) (side DUAL) at current mpmath
    precision; q an mpf.  Each side takes only the two logs it needs."""
    fx0, fx1, fx2 = mpmath.mpf(x.x0), mpmath.mpf(x.x1), mpmath.mpf(x.x2)
    ln = mpmath.log(mpmath.sqrt(fx0 ** 2 + fx1 ** 2 + fx2 ** 2))
    if side == PRIMAL:
        return max(ln, mpmath.log(abs(fx0 * u[0] + fx1 * u[1] + fx2 * u[2])) + q)
    w0 = fx1 * u[2] - fx2 * u[1]
    w1 = fx2 * u[0] - fx0 * u[2]
    w2 = fx0 * u[1] - fx1 * u[0]
    return max(mpmath.log(mpmath.sqrt(w0 * w0 + w1 * w1 + w2 * w2)), ln - q)


@dataclass
class MinimaSample:
    q: object
    L: tuple
    Lstar: Optional[tuple]
    method: str
    points: list
    dual_points: list = field(default_factory=list)
    gray: Optional[bool] = None
    kind: Optional[str] = None
    k: Optional[int] = None


def _greedy_triple(pts, keys):
    """Indices of the three linearly independent points of smallest key."""
    chosen, span = [], None      # the first point, then the normal of the first two
    for idx in sorted(range(len(keys)), key=keys.__getitem__):
        p = pts[idx]
        if len(chosen) == 1:
            p = span.wedge(p)
            if p.is_zero():
                continue
        elif chosen and p.dot(span) == 0:
            continue
        chosen.append(idx)
        span = p
        if len(chosen) == 3:
            return chosen
    return None


# plane completions: the (2 COMPLETION_WINDOW + 1)^2 grid points of a layer
# around its least-squares centre, of which only those that can still enter
# the triple are built
COMPLETION_WINDOW = 4


class CandidateBuilder:
    """Candidate lattice points for the minima at a given q: the y_i, the
    primitive integer points in the z_j directions, the unit vectors, and
    plane-completion points for the third minimum."""

    def __init__(self, bundle: Bundle, prec: int = DEFAULT_PRECISION):
        self.bundle = bundle
        self.base_prec = prec
        self._u_cache = {}

    def prec_for(self, q) -> int:
        return max(self.base_prec, int(3.3 * float(q)) + 192)

    def u(self, prec):
        from .xi import xi_value

        key = prec
        if key not in self._u_cache:
            self._u_cache[key] = xi_value(self.bundle, prec).u_vector(prec)
        return self._u_cache[key]

    def i_max_for(self, q) -> int:
        """Smallest index whose y-norm comfortably exceeds e^q."""
        need = 0.75 * float(q) / math.log(2) + 8
        i = 2
        while self.bundle.ys.at(i).sup_norm().bit_length() < need:
            i += 1
        return i + 2

    def base_points(self, q):
        """The unit vectors, the primitive y_i and the z-hat_j for indices up
        to i_max_for(q), each once up to sign (first nonzero coordinate
        positive), in that order."""
        i_max = self.i_max_for(q)
        pts = [SymVec(1, 0, 0), SymVec(0, 1, 0), SymVec(0, 0, 1)]
        pts += [self.bundle.ys.at(i).primitive() for i in range(-2, i_max + 1)]
        pts += [self.bundle.zs.num(j).primitive() for j in range(0, i_max + 1)]
        keys = {}
        for p in pts:
            positive = p.x0 > 0 or (p.x0 == 0 and (p.x1, p.x2) > (0, 0))
            keys.setdefault(p.as_tuple() if positive else (-p).as_tuple())
        return [SymVec(*key) for key in keys]

    def _complete(self, triple, pts, keys, terms):
        """Augment the candidate list and its keys (in place) with plane
        completions around the current best pairs, then redo the greedy
        selection.

        Only the completion points whose key is at most that of the current
        third point are built, and the selection is the one that the full
        grids would give.  `_greedy_triple` sorts stably by (key, index), and
        new points get larger indices, so the prefix that ends at the current
        third point already has rank 3 and greedy picks all three points
        inside it: a point with a larger key is never picked.  The second
        round's third key is no larger than the first round's, so what the
        first round dropped stays irrelevant.  The keys are exact values of
        the side's pair of terms, the one definition of its body, so
        key <= form <= 2 key holds as for every other point."""
        for _ in range(2):
            bound = keys[triple[2]]
            for i, j in ((triple[0], triple[1]), (triple[0], triple[2]), (triple[1], triple[2])):
                for comp, k in self._completions(pts[i], pts[j], terms, bound):
                    pts.append(comp)
                    keys.append(k)
            new = _greedy_triple(pts, keys)
            if new == triple:
                break
            triple = new
        return triple

    def _completions(self, v1: SymVec, v2: SymVec, terms, bound):
        """(point, key) for the points x_c + da v1 + db v2, |da|, |db| <=
        COMPLETION_WINDOW, rows of da first, whose key (the larger of the
        two terms) is at most `bound`; x_c is the rounded centre of `_centre`.  Each term T is a symmetric
        bilinear form, so T(x, x) = T(x_c, x_c) + 2 da T(x_c, v1) +
        2 db T(x_c, v2) + da^2 T(v1, v1) + 2 da db T(v1, v2) + db^2 T(v2, v2),
        and the exact key of every grid point follows from the six pairs."""
        xc, six = _centre(v1, v2, terms)
        out = []
        for da in range(-COMPLETION_WINDOW, COMPLETION_WINDOW + 1):
            # along the row of da, the two terms are a + db (b + db c)
            (a0, b0, c0), (a1, b1, c1) = [
                (xx + da * (2 * x1 + da * s11), 2 * (x2 + da * s12), s22)
                for xx, x1, x2, s11, s12, s22 in zip(*six)]
            xa = xc + da * v1
            for db in range(-COMPLETION_WINDOW, COMPLETION_WINDOW + 1):
                k0 = a0 + db * (b0 + db * c0)
                if k0 <= bound:
                    k1 = a1 + db * (b1 + db * c1)
                    if k1 <= bound:
                        out.append((xa + db * v2, max(k0, k1)))
        return out


def _centre(v1: SymVec, v2: SymVec, terms):
    """x_c = x0 + a v1 + b v2, the least-squares centre of the layer
    x . n = 1 (n the primitive normal of the v1-v2 plane) in the side's form
    (the sum of its terms), with a, b rounded to integers, half to even; and
    the terms on the six pairs (x_c, x_c), (x_c, v1), (x_c, v2), (v1, v1),
    (v1, v2), (v2, v2).

    v1 and v2 come from a greedy triple, so they are independent and n
    exists; n is primitive, so the extended gcd of its coordinates is
    +-1 and gives x0, and no point of the layer is zero.  The form is
    positive definite, so for independent v1, v2 the determinant of the
    normal equations is positive (strict Cauchy-Schwarz)."""
    n = v1.wedge(v2).primitive()
    g1, a, b = _ext_gcd(n.x0, n.x1)
    g, c, d = _ext_gcd(g1, n.x2)
    x0 = SymVec(g * c * a, g * c * b, g * d)
    of, (u1, u2, u0) = terms.of, (x.dot(terms.U) for x in (v1, v2, x0))
    vv = of(v1, u1, v1, u1), of(v1, u1, v2, u2), of(v2, u2, v2, u2)
    f11, f12, f22 = (sum(t) for t in vv)
    r1, r2 = -sum(of(x0, u0, v1, u1)), -sum(of(x0, u0, v2, u2))
    det = f11 * f22 - f12 * f12
    xc = (x0 + _round_div(r1 * f22 - r2 * f12, det) * v1
          + _round_div(r2 * f11 - r1 * f12, det) * v2)
    uc = xc.dot(terms.U)
    return xc, (of(xc, uc, xc, uc), of(xc, uc, v1, u1), of(xc, uc, v2, u2)) + vv


def _round_div(n: int, d: int) -> int:
    """round(Fraction(n, d)) for d > 0, by one divmod and no gcd: the
    nearest integer to n / d, half to even."""
    q, r = divmod(n, d)
    return q + 1 if 2 * r > d or (2 * r == d and q % 2) else q


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def minima_candidates(builder: CandidateBuilder, q, P: Optional[SystemBreakpoints] = None,
                      kind=None, k=None) -> MinimaSample:
    """Upper bounds for the primal minima L_j and the dual minima L*_j at q
    from the candidate set.  Each side ranks the base points and the plane
    completions of its own body by the exact integer keys of `_size_keys`;
    logarithms are taken only for the three points it reports, so each L_j
    and L*_j is the trajectory of its own point."""
    prec = builder.prec_for(q)
    with mpmath.workprec(prec):
        qm = mpmath.mpf(q) if not isinstance(q, mpmath.mpf) else q
        u = builder.u(prec)
        base = builder.base_points(q)
        minima, chosen = [], []
        for side, (key, terms) in enumerate(_size_keys(u, qm, prec)):
            pts, keys = list(base), [key(p) for p in base]
            # never None: the base points start with the three unit vectors
            triple = _greedy_triple(pts, keys)
            triple = builder._complete(triple, pts, keys, terms)
            chosen.append([pts[i] for i in triple])
            minima.append(tuple(_traj(p, u, qm, side) for p in chosen[-1]))
    return MinimaSample(q=qm, L=minima[PRIMAL], Lstar=minima[DUAL], method="candidate",
                        points=chosen[PRIMAL], dual_points=chosen[DUAL],
                        gray=None if P is None else P.in_gray(float(q)), kind=kind, k=k)


def breakpoint_samples(builder: CandidateBuilder, P: SystemBreakpoints) -> list:
    """One candidate sample per breakpoint (kind, k) of P, in P.breakpoints()
    order, tagged with its kind and k.  Kinds that fall on the same abscissa
    share one minima_candidates call."""
    at_q, out = {}, []
    for kind, pts in P.breakpoints().items():
        for k, q in pts:
            if q not in at_q:
                at_q[q] = minima_candidates(builder, q, P=P)
            out.append(dataclasses.replace(at_q[q], kind=kind, k=k))
    return out


def minima_bruteforce(builder: CandidateBuilder, q) -> MinimaSample:
    """Exact successive minima by exhaustive enumeration: each side's kernel
    lists the points whose key of `_size_keys` is at most B, the smaller of
    the candidates' third key and the largest key of the reduced basis (each
    the largest key of three independent points, so the greedy triple always
    exists), ranked by those keys.  Both boxes are sized before either is
    walked; `kernels.TooLarge` names a side whose box passes `kernels._CAP`."""
    cand = minima_candidates(builder, q)
    prec = builder.prec_for(q)
    with mpmath.workprec(prec):
        qm = mpmath.mpf(q) if not isinstance(q, mpmath.mpf) else q
        u = builder.u(prec)
        bounds = [kernels.basis_bound(side, u[1], u[2], qm, prec, pts[2])
                  for side, pts in enumerate((cand.points, cand.dual_points))]
        minima, chosen = [], []
        for side, (collect, bound) in enumerate(zip((kernels.collect_primal, kernels.collect_dual), bounds)):
            pts, keys = collect(u[1], u[2], qm, prec, Fraction(bound, 2 ** (3 * prec)))
            chosen.append([pts[i] for i in _greedy_triple(pts, keys)])
            minima.append(tuple(_traj(p, u, qm, side) for p in chosen[-1]))
        return MinimaSample(q=qm, L=minima[PRIMAL], Lstar=minima[DUAL], method="bruteforce",
                            points=chosen[PRIMAL], dual_points=chosen[DUAL])


# ---------------------------------------------------------------------------
# duality / comparison
# ---------------------------------------------------------------------------

@dataclass
class DualityReport:
    per_j: dict            # j -> max |L_j + L*_{4-j}| over the grid
    per_j_windows: dict    # j -> (early max, late max)

    @property
    def non_growing(self) -> bool:
        return all(late <= 2 * early + 1e-9 for early, late in self.per_j_windows.values())


def duality_check(builder: CandidateBuilder, q_grid) -> DualityReport:
    samples = [minima_bruteforce(builder, q) for q in q_grid]
    per_j = {}
    per_j_windows = {}
    half = (min(q_grid) + max(q_grid)) / 2
    for j in (1, 2, 3):
        devs = [(float(s.q), abs(float(s.L[j - 1] + s.Lstar[3 - j]))) for s in samples]
        per_j[j] = max(d for _, d in devs)
        early = max((d for qv, d in devs if qv <= half), default=0.0)
        late = max((d for qv, d in devs if qv > half), default=0.0)
        per_j_windows[j] = (early, late)
    return DualityReport(per_j=per_j, per_j_windows=per_j_windows)


@dataclass
class ComparisonReport:
    item1: dict            # window label -> max |L1 - P1|
    item2: dict            # window label -> max over I_j of (|L2-P2|, |L3-P3|)
    item3_C: float         # smallest C with P2 - C <= L2 <= L3 <= P3 + C on I'
    rows: list             # (q, L1..3, P1..3, gray)

    def non_growing(self, early: str, late: str) -> dict:
        out = {}
        out["item1"] = self.item1[late] <= 2 * self.item1[early] + 1e-9
        out["item2"] = all(
            l <= 2 * e + 1e-9
            for e, l in zip(self.item2[early], self.item2[late]))
        return out


def compare(P: SystemBreakpoints, samples, window_of=None) -> ComparisonReport:
    """window_of: sample -> label ('early'/'late'); defaults to splitting the
    q-range in half (by the midpoint of log scale)."""
    qs = [float(s.q) for s in samples]
    half = (min(qs) + max(qs)) / 2
    if window_of is None:
        def window_of(s):
            return "early" if float(s.q) <= half else "late"
    item1 = {}
    item2 = {}
    C = 0.0
    rows = []
    I = P.I_intervals()

    def in_I(qv):
        return any(a <= qv <= b for _, a, b in I)

    for s in samples:
        qv = float(s.q)
        Pv = P.P(s.q)
        gray = P.in_gray(qv)
        rows.append((qv, *[float(x) for x in s.L], *[float(x) for x in Pv], gray))
        w = window_of(s)
        d1 = abs(float(s.L[0] - Pv[0]))
        item1[w] = max(item1.get(w, 0.0), d1)
        if in_I(qv) and not gray:
            d2 = abs(float(s.L[1] - Pv[1]))
            d3 = abs(float(s.L[2] - Pv[2]))
            prev = item2.get(w, (0.0, 0.0))
            item2[w] = (max(prev[0], d2), max(prev[1], d3))
        if gray:
            C = max(C, float(Pv[1] - s.L[1]), float(s.L[1] - Pv[2]),
                    float(Pv[1] - s.L[2]), float(s.L[2] - Pv[2]), 0.0)
    for w in item1:
        item2.setdefault(w, (0.0, 0.0))
    return ComparisonReport(item1=item1, item2=item2, item3_C=C, rows=rows)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def csv_rows(P: SystemBreakpoints, samples):
    rows = ["q,L1,L2,L3,P1,P2,P3,gray_flag"]
    for s in samples:
        Pv = P.P(s.q)
        gray = P.in_gray(float(s.q))
        rows.append(",".join(
            [mpmath.nstr(mpmath.mpf(s.q), 17)]
            + [mpmath.nstr(mpmath.mpf(v), 17) for v in s.L]
            + [mpmath.nstr(mpmath.mpf(v), 17) for v in Pv]
            + ["1" if gray else "0"]))
    return rows


def svg_plot(P: SystemBreakpoints, samples=(), config_note=""):
    """Self-contained SVG of the combined graph: P1..P3 solid polylines,
    samples as dots, gray intervals shaded."""
    width, height, n_grid = 900, 540, 400
    lo, hi = (float(x) for x in P.span)
    # keep the grid strictly inside the span: the float endpoints can round
    # just past the exact mpf boundaries
    eps = (hi - lo) * 1e-12
    qs = [min(max(lo + (hi - lo) * t / n_grid, lo + eps), hi - eps)
          for t in range(n_grid + 1)]
    curves = [[], [], []]
    for q in qs:
        vals = P.P(mpmath.mpf(q))
        for j in range(3):
            curves[j].append(float(vals[j]))
    ymax = max(curves[2]) * 1.05 + 1e-9
    pad = 50

    def X(q):
        return pad + (q - lo) / (hi - lo) * (width - 2 * pad)

    def Y(v):
        return height - pad - v / ymax * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f"<desc>{config_note}</desc>",
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for _, b, a in P.gray_intervals():
        b, a = float(b), float(a)
        if a > b and a >= lo and b <= hi:
            parts.append(
                f'<rect x="{X(max(b, lo)):.2f}" y="{pad}" '
                f'width="{max(X(min(a, hi)) - X(max(b, lo)), 0.5):.2f}" '
                f'height="{height - 2 * pad}" fill="#cccccc" opacity="0.5"/>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
                 'stroke="black"/>')
    colors = ("#1f77b4", "#2ca02c", "#d62728")
    for j, col in enumerate(colors):
        pts = " ".join(f"{X(q):.2f},{Y(v):.2f}" for q, v in zip(qs, curves[j]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{col}" '
                     'stroke-width="1.5"/>')
    for s in samples:
        qv = float(s.q)
        if not (lo <= qv <= hi):
            continue
        for j, col in enumerate(colors):
            parts.append(f'<circle cx="{X(qv):.2f}" cy="{Y(float(s.L[j])):.2f}" '
                         f'r="2.5" fill="{col}"/>')
    parts.append(f'<text x="{width - pad}" y="{height - pad + 30}" '
                 'text-anchor="end" font-size="12">q</text>')
    parts.append("</svg>")
    return "\n".join(parts)
