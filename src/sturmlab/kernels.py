"""Hot enumeration kernels for brute-force successive minima.

Both kernels return the nonzero integer points x = (x0, x1, x2) of a window
whose float64 size lam is at most a widened cutoff c':

* primal: lam(x) = max(|x|_2, e^q |x . u|)           (u = (1, xi, xi^2))
* dual:   lam*(x) = max(|x ^ u|_2, e^{-q} |x|_2)

c' = `_widen`(c) is c plus more than the float64 error of lam over the
window, so a point of the window whose exact lam is at most c has float lam
at most c' (points up to c' - c above c may come back too).  The window,
whose points all have |x|_1 <= the n1 each kernel gives `_widen`:

* primal: |x1|, |x2| <= R and x0 in [ceil(max(-s - w, -c')),
  floor(min(-s + w, c'))], with s = fl(x1 xi + x2 xi^2) and w = c' e^{-q}:
  c' - c exceeds e^q times the error of s and of the ends.
* dual: |x0| <= R0 and, with p1 = fl(x0 xi), p2 = fl(x0 xi^2) and
  b_i = floor(p_i), x_i - b_i in [ceil(p_i - b_i - c'), floor(p_i - b_i + c')]:
  x0 xi - x1 and x2 - x0 xi^2 are components of x ^ u, and c' - c exceeds
  the error of p1, p2 and of the ends.

Neither kernel scans its window.  Each scans a box in an LLL-reduced basis
of its body, and keeps a cell only if it passes the three tests of a window
scan: float lam <= c', nonzero, inside the window.  The box holds every
point that passes them:

1. Let lam_G be lam computed exactly from the float inputs xi, xi2 and
   E = fl(e^q) (primal) or F = fl(e^{-q}) (dual).  Its float value differs
   from lam_G only by roundings that `_widen` counts, so on the window
   |fl(lam) - lam_G| <= 8 eps S + (|q| + 9) eps lam_G, eps = 2^-53 and
   S = scale * m * n1 as in `_widen`.
2. After `_widen`'s own roundings, c' - c >= 15 eps S + (2|q| + 13) eps c.
   Put r = 2c' - c.  For |q| <= 10^15, where 2 (|q| + 9) eps <= 4/13,
   r - c' = c' - c >= 8 eps S + (|q| + 9) eps r, so a window point with
   lam_G > r has fl(lam) > r - 8 eps S - (|q| + 9) eps r >= c'.  Every kept
   point has lam_G <= r.
3. lam_G <= r gives Q(x) <= 2 r^2 for the form Q(x) = x^T G x with
   primal  G = I + E^2 u u^T               (|x|^2 + E^2 (x . u)^2)
   dual    G = |u|^2 I - u u^T + F^2 I      (|x ^ u|^2 + F^2 |x|^2).
   A kept dual point also has |x| <= |x0| |u| + |x - x0 u| <= R0 |u|_1 + r
   (x - x0 u is (0, -w2, w1) for w = x ^ u), so F may be raised to
   r / (R0 |u|_1 + r) where that is larger: the box then shrinks with the
   window when |x0| <= R0 cuts the body short.  (Callers give the primal
   kernel R = floor(c), where |x1|, |x2| <= R does not cut its body.)  The
   entries of G are rationals, so an integer multiple of G is an integer
   matrix, and `_lll` reduces Z^3 under it exactly.
4. In the reduced basis b_0, b_1, b_2 (the rows of a unimodular H), x =
   sum c_i b_i and Q(x) = c^T G' c with G' = H G H^T.  By Cauchy-Schwarz in
   the form, c_i^2 <= Q(x) (G'^-1)_ii = Q(x) cof_ii / det G', so
   |c_i| <= floor(sqrt(2 r^2 cof_ii / det G')), taken by `isqrt` of an
   exact integer quotient: no rounding calls for a wider box.

The kernels check three conditions of this proof and of its cost, and raise
TooLarge, before any cell is scanned, where one fails:

a. every float input of the body is finite (`_dyadic`): E = fl(e^q) is
   finite only for q < 709.783, and F = fl(e^{-q}) only for q > -709.783;
b. the box has at most _CAP cells (`_box`);
c. no coordinate of a box cell can reach 2^53 (`_box`), so the float64
   cells are exactly the integer points of the box.

Step 2's |q| <= 10^15 is left to the caller on the side where the weight
underflows instead of overflowing (q < 0 primal, q > 0 dual).

So the kernels keep exactly the points of a window scan: a cell that passes
the tests is a window point with float lam <= c', and every such point lies
in the box.  Their lam is the same float64 expression, bit for bit, and
they sort by the key in which a window scan meets its points: (x1, x0 -
window start, x2) for the primal kernel and (x1 - floor(x0 xi),
x2 - floor(x0 xi^2), x0) for the dual one, so that points of equal lam
always come in the same order.  Any unimodular basis gives these points; a
reduced one makes the box hold a few times the points of the body, so the
cost follows the number of points, not the size of the window.  lam is
float64 and only filters: callers rank the points they get, and evaluate
them, exactly.
"""
from __future__ import annotations

import math

import numpy as np

from .exactlin import SymVec, det3


class TooLarge(ValueError):
    pass


_CAP = 4_000_000          # box cells per call
_CHUNK = 1 << 18          # box cells per pass


class _Gather:
    """The kept points of all passes, sorted at the end by their visiting key."""

    def __init__(self):
        none = np.empty(0)
        self.pts, self.lams = [np.empty((0, 3))], [none]
        self.keys = [(none, none, none)]

    def add(self, x, lam, key, keep):
        """Keep the nonzero points of x (float64 coordinates) where keep holds."""
        keep = np.nonzero(keep & ((x[0] != 0) | (x[1] != 0) | (x[2] != 0)))[0]
        self.pts.append(np.stack([c[keep] for c in x], axis=1))
        self.lams.append(lam[keep])
        self.keys.append([k[keep] for k in key])

    def result(self):
        order = np.lexsort([np.concatenate(k) for k in zip(*self.keys)][::-1])
        return np.concatenate(self.pts)[order].astype(np.int64), np.concatenate(self.lams)[order]


def _widen(xi: float, xi2: float, q: float, cutoff: float, scale: float, n1: float) -> float:
    """cutoff plus 16 eps S + 2 (|q| + 8) eps cutoff, S = scale m n1, which
    exceeds the float64 error of lam at lam <= cutoff on a window with
    |x|_1 <= n1; scale is e^q for the primal body, 1 for the dual one.  With
    eps = 2^-53 and m = max(1, |xi|, |xi^2|), fl(x . u), s, each component
    of fl(x ^ u) and fl(x0 xi) are off by at most 4.1 eps m n1 (float xi and
    xi^2 by 1.01 eps relative, a sum of products by gamma_3), x ^ u as a
    vector by 7.2 eps m n1, fl(e^{+-q}) by (|q| + 4) eps relative, and each
    product, sum of squares or square root by 3 eps relative: for every point
    of the window, |fl(lam) - lam| <= 8 eps S + (|q| + 9) eps lam."""
    m = max(1.0, abs(xi), abs(xi2))
    return cutoff + scale * m * n1 * 2.0 ** -49 + cutoff * (abs(q) + 8) * 2.0 ** -52


def _dyadic(*xs):
    """Integers n_i and one power of two K with x_i = n_i / K exactly."""
    if not all(map(math.isfinite, xs)):
        raise TooLarge("a float64 input of the enumeration body is not finite")
    ratios = [float(x).as_integer_ratio() for x in xs]
    K = max(d for _, d in ratios)
    return [n * (K // d) for n, d in ratios], K


def _lll(g):
    """Rows of a unimodular H whose rows are an LLL-reduced (delta = 99/100)
    basis of Z^3 under the positive definite integer Gram g, and their Gram
    H g H^T.  Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, 2.6.7): d1 = g00, d2 = g00 g11 - g01^2 and d3 = det g are the Gram
    determinants of the leading rows, and lam_kl = d_l mu_kl is an integer,
    so no step leaves the integers.  The Gram is kept as its six entries."""
    (a, b, c), (_, d, e), (_, _, f) = g
    d3 = _det(g)
    h = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def sub(k, l, m):        # row k of h -= m row l
        h[k] = [x - m * y for x, y in zip(h[k], h[l])]

    k = 1
    while k < 3:
        d2 = a * d - b * b
        if k == 1:           # size-reduce row 1 by row 0: lam_10 = g01
            if 2 * abs(b) > a:
                m = (2 * b + a) // (2 * a)
                sub(1, 0, m)
                b, d, e = b - m * a, d - m * (2 * b - m * a), e - m * c
            if 100 * d2 < 99 * a * a - 100 * b * b:
                h[0], h[1] = h[1], h[0]
                a, c, d, e = d, e, a, c
                continue
            k = 2
            continue
        lam = a * e - b * c  # lam_21, against d2
        if 2 * abs(lam) > d2:
            m = (2 * lam + d2) // (2 * d2)
            sub(2, 1, m)
            c, e, f = c - m * b, e - m * d, f - m * (2 * e - m * d)
            lam -= m * d2
        if 100 * d3 * a < 99 * d2 * d2 - 100 * lam * lam:
            h[1], h[2] = h[2], h[1]
            b, c, d, f = c, b, f, d
            k = 1
            continue
        if 2 * abs(c) > a:   # lam_20 = g02, against d1
            m = (2 * c + a) // (2 * a)
            sub(2, 0, m)
            c, e, f = c - m * a, e - m * b, f - m * (2 * c - m * a)
        k = 3
    return h, [[a, b, c], [b, d, e], [c, e, f]]


def _det(g):
    return det3(*(SymVec(*row) for row in g))


def _box(gram, bound):
    """Chunks (x0, x1, x2) of float64 arrays, at most _CHUNK points each, of a
    box that holds every integer x with x^T gram x <= bound (integers): the
    box |c_i| <= h_i = floor(sqrt(bound cof_ii / det)) in an LLL-reduced
    basis (module docstring, step 4).  Raises TooLarge before the first chunk
    if the box has more than _CAP cells, or if a coordinate of a cell can
    reach 2^53, past which float64 no longer holds every integer: |x_j| <=
    sum_i h_i |H_ij|, and every partial sum of the scan is bounded by it."""
    h, g = _lll(gram)
    det = _det(g)
    half = [math.isqrt(bound * (g[j][j] * g[l][l] - g[j][l] * g[l][j]) // det)
            for j, l in ((1, 2), (0, 2), (0, 1))]
    cells = math.prod(2 * n + 1 for n in half)
    if cells > _CAP:
        raise TooLarge(f"the enumeration box has {cells} cells, more than {_CAP}")
    if max(sum(n * abs(b[j]) for b, n in zip(h, half)) for j in range(3)) >= 2 ** 53:
        raise TooLarge("a coordinate of the enumeration box can reach 2^53")
    # the longest side first, so that the plane of the other two is smallest
    (b0, h0), (b1, h1), (b2, h2) = sorted(
        ((np.array(b, dtype=np.float64), n) for b, n in zip(h, half)), key=lambda t: -t[1])
    c1 = np.arange(-h1, h1 + 1, dtype=np.float64)[:, None]
    c2 = np.arange(-h2, h2 + 1, dtype=np.float64)
    plane = [(c1 * b1[j] + c2 * b2[j]).ravel() for j in range(3)]
    size = plane[0].size
    rows, step = max(1, _CHUNK // size), min(size, _CHUNK)
    for first in range(-h0, h0 + 1, rows):
        c0 = np.arange(first, min(first + rows, h0 + 1), dtype=np.float64)[:, None]
        for at in range(0, size, step):
            yield [(c0 * b0[j] + p[at:at + step]).ravel() for j, p in enumerate(plane)]


def collect_primal(xi: float, xi2: float, q: float, R: int, cutoff: float):
    """Every nonzero integer point with lam(x) <= cutoff and |x1|, |x2| <= R
    (all of them when R = floor(cutoff)).  Returns (points int64 (n,3), lam (n,))."""
    xi, xi2, q, R, cutoff = float(xi), float(xi2), float(q), int(R), float(cutoff)
    out = _Gather()
    eq = float(np.exp(q))
    wide = _widen(xi, xi2, q, cutoff, eq, 2 * R + cutoff + 1)
    w = wide * float(np.exp(-q))
    # u = U / k, r = 2 wide - cutoff = (2a - b) / k and E = e / k1: Q <= 2 r^2
    # is x^T (K^2 I + v v^T) x <= 2 k1^2 (2a - b)^2, with K = k k1 and v = e U
    (*U, a, b), k = _dyadic(1.0, xi, xi2, wide, cutoff)
    (e,), k1 = _dyadic(eq)
    v, K = [e * c for c in U], k * k1
    gram = [[K * K * (i == j) + v[i] * v[j] for j in range(3)] for i in range(3)]
    for x0, x1, x2 in _box(gram, 2 * (k1 * (2 * a - b)) ** 2):
        lam = np.maximum(np.sqrt(x0 * x0 + x1 * x1 + x2 * x2),
                         np.abs(x0 + x1 * xi + x2 * xi2) * eq)
        near = np.nonzero(lam <= wide)[0]
        x0, x1, x2, lam = x0[near], x1[near], x2[near], lam[near]
        c = -(x1 * xi + x2 * xi2)
        base = np.ceil(np.maximum(c - w, -wide))
        inside = ((np.abs(x1) <= R) & (np.abs(x2) <= R) & (base <= x0)
                  & (x0 <= np.floor(np.minimum(c + w, wide))))
        out.add((x0, x1, x2), lam, (x1, x0 - base, x2), inside)
    return out.result()


def collect_dual(xi: float, xi2: float, q: float, R0: int, cutoff: float):
    """Every nonzero integer point with lam*(x) <= cutoff and |x0| <= R0."""
    xi, xi2, q, R0, cutoff = float(xi), float(xi2), float(q), int(R0), float(cutoff)
    out = _Gather()
    emq = float(np.exp(-q))
    wide = _widen(xi, xi2, q, cutoff, 1.0, R0 * (1 + abs(xi) + abs(xi2)) + 2 * cutoff + 3)
    # u = U / K, F = f / K, r = 2 wide - cutoff = r' / K and R0 |u|_1 + r =
    # rho / K.  With F raised to r' / rho where that is larger (module
    # docstring, step 3) and K^2 F^2 = fn / fd, Q <= 2 r^2 is
    # x^T (fd (|U|^2 I - U U^T) + fn I) x <= 2 fd r'^2
    (*U, f, a, b), K = _dyadic(1.0, xi, xi2, emq, wide, cutoff)
    r = 2 * a - b
    rho = R0 * sum(map(abs, U)) + r
    fn, fd = (f * f, 1) if f * rho >= K * r else ((K * r) ** 2, rho * rho)
    diag = fd * sum(c * c for c in U) + fn
    gram = [[diag * (i == j) - fd * U[i] * U[j] for j in range(3)] for i in range(3)]
    for x0, x1, x2 in _box(gram, 2 * fd * r * r):
        p1, p2 = x0 * xi, x0 * xi2
        w0 = x1 * xi2 - x2 * xi
        w1 = x2 - p2
        w2 = p1 - x1
        lam = np.maximum(np.sqrt(w0 * w0 + w1 * w1 + w2 * w2),
                         np.sqrt(x0 * x0 + x1 * x1 + x2 * x2) * emq)
        near = np.nonzero(lam <= wide)[0]
        x0, x1, x2, p1, p2, lam = x0[near], x1[near], x2[near], p1[near], p2[near], lam[near]
        b1, b2 = np.floor(p1), np.floor(p2)
        d1, d2 = x1 - b1, x2 - b2
        f1, f2 = p1 - b1, p2 - b2          # exact
        inside = ((np.abs(x0) <= R0) & (np.ceil(f1 - wide) <= d1) & (d1 <= np.floor(f1 + wide))
                  & (np.ceil(f2 - wide) <= d2) & (d2 <= np.floor(f2 + wide)))
        out.add((x0, x1, x2), lam, (d1, d2, x0), inside)
    return out.result()
