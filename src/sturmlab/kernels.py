"""The two bodies of the successive minima in exact integers, and the exact
enumeration behind the brute-force minima.

Each side's body at q is the pair of integer terms of `_size_keys`.  The key
of a point x is the larger of its two terms, and the side's form, their sum,
is a positive definite integer quadratic form with

    key(x) <= form(x) <= 2 key(x).

`collect_primal` and `collect_dual` list every nonzero x with key(x) <= B,
one of each pair +-x.  Such x lie in the ellipsoid form(x) <= 2B.  `_lll`
reduces Z^3 under the form; in the reduced basis b_0, b_1, b_2, x = sum c_i
b_i and form(x) = c^T G c.  By Cauchy-Schwarz in G, c_i^2 <= form(x)
(G^-1)_ii = form(x) cof_ii / det G, so |c_i| <= floor(sqrt(2B cof_ii /
det G)), taken by `isqrt` of an exact integer quotient.  The cells of this
box, prod (2 h_i + 1), are the work guard: a box of more than _CAP cells
raises TooLarge before any point is met.  The walk visits less than the box:
c_2 over its range, c_1 where the form minimised over a real c_0 is at most
2B, and on each line y + c_0 b_0 the c_0 where both terms, quadratics in
c_0, are at most B.  Every step is an integer quadratic inequality solved by
`_span`, so the kernels keep exactly the points with key <= B.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

from .exactlin import SymVec, det3


class TooLarge(ValueError):
    pass


_CAP = 4_000_000          # box cells per side


def _size_keys(u, q, p):
    """The bodies of both sides at q in exact integers, from the working
    precision p: a (key, terms) pair per side, indexed by PRIMAL/DUAL of
    `paramgeo`.  With U = round(2^p u) and E = round(2^p e^{2q}), each side
    is two integer terms of a pair of points (x, y), both symmetric bilinear
    forms:

        primal  2^{3p} <x, y>,  E (x.U)(y.U)
        dual    E <x^U, y^U>,   2^{3p} <x, y>

    The key of x is the larger of its two terms at y = x:

        primal  max(|x|^2 2^{3p}, E (x.U)^2)   ~ 2^{3p} e^{2 L_x(q)}
        dual    max(E |x^U|^2, |x|^2 2^{3p})   ~ 2^{3p} e^{2q} e^{2 L*_x(q)}

    so at a fixed q each key orders points like the trajectory of its side,
    with no logarithm and no square root.  The form, the sum of the two
    terms, is a positive definite bilinear form proportional, up to the same
    rounding, to the side's quadratic form |x|^2 + e^{2q}(x.u)^2 or
    |x^u|^2 + e^{-2q}|x|^2.  Plane completions solve for their
    least-squares centre in it exactly: the 2x2 normal equations of two
    nearly parallel deep points cancel most of the bits of their
    determinant, and a centre solved at the working precision can miss its
    own integer part (on roy(2,1,2), period (1, 2), by about 2^566 at
    q ~ 741 with p = 2635).

    Rounding, on top of u's own p-bit rounding (which the trajectories share):
    each coordinate of U is within 1/2 of 2^p u_i, so |x.U - 2^p x.u| <=
    ||x||_1 / 2, and each coordinate of x^U is within ||x||_1 / 2 of that of
    2^p x^u; E is within a relative 3/2 * 2^{-p} of 2^p e^{2q}.  A rounded
    term moves a key only where it is the larger term, that is where
    e^q |x.u| >= |x| (e^q |x^u| >= |x| on the dual side) up to the same
    rounding, and there its relative error is at most
    sqrt(3) ||x||_1 e^q / 2^{p+1} |x| <= (3/2) e^q 2^{-p}.  So half the log
    of a key is within eta = 3 e^q 2^{-p} of the trajectory plus a constant
    ((3p/2) log 2, plus q on the dual side), and the keys can order two
    points against their trajectories only if those agree to within 2 eta.
    At prec_for(q) > 3.3 q + 191 bits, eta < 2^{-189}: a near-tie can swap
    only points whose trajectories are equal to the p-bit rounding that the
    trajectories themselves carry."""
    U = SymVec(*(int(mpmath.nint(mpmath.ldexp(c, p))) for c in u))
    E = int(mpmath.nint(mpmath.ldexp(mpmath.exp(2 * q), p)))
    s, UU = 3 * p, U.dot(U)

    def primal(x, xU, y, yU):
        return x.dot(y) << s, E * xU * yU

    def dual(x, xU, y, yU):  # <x^U, y^U> = <x, y> |U|^2 - (x.U)(y.U)
        xy = x.dot(y)
        return E * (xy * UU - xU * yU), xy << s

    def body(of):            # (key, terms)
        terms = _Terms(of, U)
        return (lambda x: max(terms(x, x))), terms

    return body(primal), body(dual)


class _Terms:
    """terms(x, y): the two integer terms of one side of `_size_keys` on the
    points x, y.  terms.of(x, x.U, y, y.U) gives them from the points' dot
    products with U, so that `_centre`, which takes the terms on every pair
    of four points, forms each p-bit x.U once."""

    def __init__(self, of, U):
        self.of, self.U = of, U

    def __call__(self, x, y):
        xU = x.dot(self.U)
        return self.of(x, xU, y, xU if y is x else y.dot(self.U))


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


_UNIT = (SymVec(1, 0, 0), SymVec(0, 1, 0), SymVec(0, 0, 1))


def _reduced(terms):
    """A reduced basis under the form of `terms`, and both terms' Grams in it."""
    b = [SymVec(*row) for row in _lll([[sum(terms(x, y)) for y in _UNIT] for x in _UNIT])[0]]
    pairs = [[terms(x, y) for y in b] for x in b]
    return b, [[[t[k] for t in row] for row in pairs] for k in (0, 1)]


@functools.lru_cache(maxsize=2)
def _body(side, u1, u2, q, p):
    """The terms of side 0 (primal) or 1 (dual) of `_size_keys((1, u1, u2), q,
    p)` at p bits and their `_reduced`, kept for the last two bodies, so that
    `minima_bruteforce` sizes both boxes, then walks them, on one reduction."""
    with mpmath.workprec(p):
        terms = _size_keys((1, u1, u2), q, p)[side][1]
    return terms, _reduced(terms)


def _box(side, grams, bound):
    """The form's Gram and the half-widths h_i of the box of its ellipsoid
    form <= 2 bound; raises TooLarge if the box has more than _CAP cells."""
    g = [[s + t for s, t in zip(r, w)] for r, w in zip(*grams)]
    det = _det(g)
    half = [math.isqrt(2 * bound * (g[j][j] * g[l][l] - g[j][l] ** 2) // det)
            for j, l in ((1, 2), (0, 2), (0, 1))]
    cells = math.prod(2 * n + 1 for n in half)
    if cells > _CAP:
        raise TooLarge(f"the {('primal', 'dual')[side]} enumeration box has {cells} cells, more than {_CAP}")
    return g, half


def basis_bound(side, u1, u2, q, p, x):
    """B = min(key(x), the largest key of the reduced basis) for the body of
    `_body`: where x is the third of three independent points in key order,
    the keys of three independent points are at most B.  Raises TooLarge,
    before any point is met, if the box of B has more than _CAP cells."""
    terms, (_, grams) = _body(side, u1, u2, q, p)
    bound = min(max(terms(x, x)), max(max(t[i][i] for t in grams) for i in range(3)))
    _box(side, grams, bound)
    return bound


def _span(a, b, c, bound):
    """(lo, hi) with lo..hi the integers t where a t^2 + 2 b t + c <= bound;
    a >= 0, and b = 0 where a = 0, so that the set is an interval."""
    if a == 0:
        return (-math.inf, math.inf) if c <= bound else (1, 0)
    d = b * b - a * (c - bound)
    if d < 0:
        return 1, 0
    s = math.isqrt(d)
    return -((b + s) // a), (s - b) // a


def _walk(side, reduced, bound, flip):
    """(points, keys): every nonzero x with key(x) <= bound for the `_reduced`
    terms, of each +-x the one for which flip(x0, x1, x2) is false."""
    (v0, v1, v2), (t, w) = reduced
    g, (_, _, h2) = _box(side, (t, w), bound)
    g00, pts, keys = g[0][0], [], []
    for c2 in range(h2 + 1):          # one of each +-c: the first nonzero of (c2, c1, c0) > 0
        lo, hi = _span(g00 * g[1][1] - g[0][1] ** 2, (g00 * g[1][2] - g[0][1] * g[0][2]) * c2,
                       (g00 * g[2][2] - g[0][2] ** 2) * c2 * c2, 2 * bound * g00)
        for c1 in range(lo if c2 else max(lo, 0), hi + 1):
            y0, y1, y2 = (c1 * v1 + c2 * v2).as_tuple()
            # along the line y + c0 v0 each term is T(y, y) + 2 c0 T(y, v0) + c0^2 T(v0, v0)
            (a, b, c), (d, e, f) = [(m[0][0], m[0][1] * c1 + m[0][2] * c2,
                                     m[1][1] * c1 * c1 + 2 * m[1][2] * c1 * c2 + m[2][2] * c2 * c2)
                                    for m in (t, w)]
            (lo0, hi0), (lo1, hi1) = _span(a, b, c, bound), _span(d, e, f, bound)
            b, e = 2 * b, 2 * e
            for c0 in range(max(lo0, lo1) if c1 or c2 else max(lo0, lo1, 1), min(hi0, hi1) + 1):
                x0, x1, x2 = y0 + c0 * v0.x0, y1 + c0 * v0.x1, y2 + c0 * v0.x2
                pts.append(SymVec(-x0, -x1, -x2) if flip(x0, x1, x2) else SymVec(x0, x1, x2))
                keys.append(max(c + c0 * (b + c0 * a), f + c0 * (e + c0 * d)))
    return pts, keys


def collect_primal(u1, u2, q, p, bound):
    """(points, keys): every nonzero x whose primal key of `_size_keys((1,
    u1, u2), q, p)` is at most bound 2^{3p} (bound ~ e^{2 L}), and of each
    +-x the one whose first nonzero of (x1, x2, x0) is negative."""
    return _collect(0, u1, u2, q, p, bound)


def collect_dual(u1, u2, q, p, bound):
    """The same for the dual key (bound ~ e^{2q + 2 L*}), and of each +-x the
    one with x0 U1 - x1 U0 > 0 (U = round(2^p u)), or where that is 0, the
    one that `collect_primal` keeps."""
    return _collect(1, u1, u2, q, p, bound)


def _collect(side, u1, u2, q, p, bound):
    terms, reduced = _body(side, u1, u2, q, p)
    U0, U1 = (terms.U.x0, terms.U.x1) if side else (0, 0)
    return _walk(side, reduced, math.floor(Fraction(bound) * 2 ** (3 * p)),
                 lambda x0, x1, x2: (x1 * U0 - x0 * U1, x1, x2, x0) > (0, 0, 0, 0))
