"""Hot enumeration kernels for brute-force successive minima.

Both kernels evaluate integer points x = (x0, x1, x2) in numpy passes and
return those whose parametric size is at most a cutoff c:

* primal: lam(x) = max(|x|_2, e^q |x . u|)           (u = (1, xi, xi^2))
* dual:   lam*(x) = max(|x ^ u|_2, e^{-q} |x|_2)

Each kernel widens the cutoff c to c' = `_widen`(c), at least c plus the
float64 error of lam over its window, so a point whose exact lam is at most c
has float lam at most c'.  It evaluates only the window its own mask proves
holds every such point (points up to c' - c above c may come back too):

* primal: |x1|, |x2| <= R = floor(c).  The float |x|_2 of an integer point is
  the correctly rounded sqrt of an exact integer, so it is >= fl(sqrt(x1^2 +
  x2^2)) and row x1 needs only the x2 in [-h, h] with fl(sqrt(x1^2 + h^2))
  <= c'; each chunk of rows takes the range of its widest row.  x0 runs over
  [ceil(max(-s - w, -c')), floor(min(-s + w, c'))] with s = fl(x1 xi + x2 xi^2)
  and w = c' e^{-q}: c' - c exceeds e^q times the error of s and of the ends.
* dual: for each x0, |x1 - fl(x0 xi)| <= c' and |x2 - fl(x0 xi^2)| <= c', as
  x0 xi - x1 and x2 - x0 xi^2 are components of x ^ u and c' - c exceeds the
  error of fl(x0 xi), fl(x0 xi^2) and of the ends.  The ranges are taken
  around the exact fractional parts of fl(x0 xi) and fl(x0 xi^2).

Points come back sorted by the key in which a full scan of the window meets
them: (x1, x0 - window start, x2) for the primal kernel and
(x1 - floor(x0 xi), x2 - floor(x0 xi^2), x0) for the dual one, so that points
of equal lam always come in the same order.  lam is float64 and only
filters: callers rank the points they get, and evaluate them, exactly.
"""
from __future__ import annotations

import math

import numpy as np


class KernelOverflow(RuntimeError):
    pass


_CAP = 4_000_000
_CHUNK = 1 << 18          # window cells (primal) or x0 values (dual) per pass


def _ranges(lo, hi):
    """Expand the integer ranges lo[i] .. hi[i] (empty where hi < lo): the
    index i and the offset k - lo[i] of each member k, in (i, k) order."""
    n = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(n.size), n)
    return i, np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)


class _Gather:
    """The kept points of all passes, sorted at the end by their visiting key."""

    def __init__(self):
        none = np.empty(0, dtype=np.int64)
        self.pts, self.lams = [np.empty((0, 3), dtype=np.int64)], [np.empty(0)]
        self.keys, self.n = [(none, none, none)], 0

    def add(self, x0, x1, x2, lam, key, cutoff):
        keep = np.nonzero((lam <= cutoff) & ((x0 != 0) | (x1 != 0) | (x2 != 0)))[0]
        self.n += keep.size
        if self.n > _CAP:
            raise KernelOverflow(f"more than {_CAP} candidate points; tighten the cutoff")
        self.pts.append(np.stack((x0[keep], x1[keep], x2[keep]), axis=1))
        self.lams.append(lam[keep])
        self.keys.append([k[keep] for k in key])

    def result(self):
        order = np.lexsort([np.concatenate(k) for k in zip(*self.keys)][::-1])
        return np.concatenate(self.pts)[order], np.concatenate(self.lams)[order]


def _widen(xi: float, xi2: float, q: float, cutoff: float, scale: float, n1: float) -> float:
    """cutoff plus a bound on |fl(lam) - lam| for the points of a window with
    |x|_1 <= n1 and lam <= cutoff; scale is e^q for the primal body, 1 for the
    dual one.  With eps = 2^-53 and m = max(1, |xi|, |xi^2|), fl(x . u), s, each
    component of fl(x ^ u) and fl(x0 xi) are off by at most 4.1 eps m n1 (float
    xi and xi^2 by 1.01 eps relative, a sum of products by gamma_3), x ^ u as a
    vector by 7.2 eps m n1, fl(e^{+-q}) by (|q| + 4) eps relative, and each
    product, sum of squares or square root by 3 eps relative: in all at most
    scale 8 eps m n1 + (|q| + 9) eps lam, half of what is added."""
    m = max(1.0, abs(xi), abs(xi2))
    return cutoff + scale * m * n1 * 2.0 ** -49 + cutoff * (abs(q) + 8) * 2.0 ** -52


def collect_primal(xi: float, xi2: float, q: float, R: int, cutoff: float):
    """Every nonzero integer point with lam(x) <= cutoff and |x1|, |x2| <= R
    (all of them when R = floor(cutoff)).  Returns (points int64 (n,3), lam (n,))."""
    xi, xi2, q, R, cutoff = float(xi), float(xi2), float(q), int(R), float(cutoff)
    out = _Gather()
    eq = float(np.exp(q))
    cutoff = _widen(xi, xi2, q, cutoff, eq, 2 * R + cutoff + 1)
    w = cutoff * float(np.exp(-q))
    x2v = np.arange(-R, R + 1, dtype=np.float64)
    x2i = np.arange(-R, R + 1, dtype=np.int64)
    rows = max(1, _CHUNK // (x2v.size * (int(2 * min(w, cutoff)) + 2)))
    for first in range(-R, R + 1, rows):
        last = min(first + rows, R + 1) - 1
        # x2 over the range of the chunk's widest row, the one nearest x1 = 0
        h = _half_width(min(max(0, first), last), R, cutoff)
        x1i = np.arange(first, last + 1, dtype=np.int64)
        cols, width = slice(R - h, R + h + 1), 2 * h + 1
        c = -(x1i.astype(np.float64)[:, None] * xi + x2v[cols] * xi2)
        base = np.ceil(np.maximum(c - w, -cutoff)).astype(np.int64).ravel()
        top = np.floor(np.minimum(c + w, cutoff)).astype(np.int64).ravel()
        cell, dx = _ranges(base, top)
        x0, x1, x2 = base[cell] + dx, x1i[cell // width], x2i[cols][cell % width]
        x0f, x1f, x2f = x0.astype(np.float64), x1.astype(np.float64), x2.astype(np.float64)
        nrm = np.sqrt(x0f * x0f + x1f * x1f + x2f * x2f)
        dot = np.abs(x0f + x1f * xi + x2f * xi2) * eq
        out.add(x0, x1, x2, np.maximum(nrm, dot), (x1, dx, x2), cutoff)
    return out.result()


def _half_width(x1: int, R: int, cutoff: float) -> int:
    """The largest h <= R with fl(sqrt(x1^2 + h^2)) <= cutoff, or -1 if there
    is none: the x2 range [-h, h] of row x1."""
    h = min(R, int(math.sqrt(max(cutoff * cutoff - x1 * x1, 0.0))))
    # the float estimate is off by at most one at the kernel's sizes; step to
    # the exact answer of the test that the kernel applies
    while h < R and math.sqrt(x1 * x1 + (h + 1) * (h + 1)) <= cutoff:
        h += 1
    while h >= 0 and math.sqrt(x1 * x1 + h * h) > cutoff:
        h -= 1
    return h


def collect_dual(xi: float, xi2: float, q: float, R0: int, cutoff: float):
    """Every nonzero integer point with lam*(x) <= cutoff and |x0| <= R0."""
    xi, xi2, q, R0, cutoff = float(xi), float(xi2), float(q), int(R0), float(cutoff)
    out = _Gather()
    emq = float(np.exp(-q))
    cutoff = _widen(xi, xi2, q, cutoff, 1.0, R0 * (1 + abs(xi) + abs(xi2)) + 2 * cutoff + 3)
    for first in range(-R0, R0 + 1, _CHUNK):
        x0i = np.arange(first, min(first + _CHUNK, R0 + 1), dtype=np.int64)
        x0f = x0i.astype(np.float64)
        p1, p2 = x0f * xi, x0f * xi2
        b1, b2 = np.floor(p1), np.floor(p2)
        # offsets d from b: |d - (p - b)| <= cutoff, where p - b is exact
        lo1, hi1 = np.ceil(p1 - b1 - cutoff), np.floor(p1 - b1 + cutoff)
        lo2, hi2 = np.ceil(p2 - b2 - cutoff), np.floor(p2 - b2 + cutoff)
        live = np.nonzero((lo1 <= hi1) & (lo2 <= hi2))[0]
        lo1, hi1 = lo1[live].astype(np.int64), hi1[live].astype(np.int64)
        lo2, hi2 = lo2[live].astype(np.int64), hi2[live].astype(np.int64)
        i, e1 = _ranges(lo1, hi1)              # (x0, d1) pairs
        j, e2 = _ranges(lo2[i], hi2[i])        # each pair times its d2 range
        i = i[j]
        at, d1, d2 = live[i], lo1[i] + e1[j], lo2[i] + e2
        x0, x1, x2 = x0i[at], b1[at].astype(np.int64) + d1, b2[at].astype(np.int64) + d2
        x0f, x1f, x2f = x0f[at], x1.astype(np.float64), x2.astype(np.float64)
        w0 = x1f * xi2 - x2f * xi
        w1 = x2f - x0f * xi2
        w2 = x0f * xi - x1f
        wn = np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        nrm = np.sqrt(x0f * x0f + x1f * x1f + x2f * x2f) * emq
        out.add(x0, x1, x2, np.maximum(wn, nrm), (d1, d2, x0), cutoff)
    return out.result()
