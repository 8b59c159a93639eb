import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmlab import kernels, paramgeo
from sturmlab.approx import make_bundle
from sturmlab.matseq import bl_family, roy_family


XI = 0.7204846676321325
XI2 = XI * XI
XI_ROY = 2.874396040292625          # roy(2,1,2)


def _sorted(pts, lam):
    pts, lam = np.asarray(pts, dtype=np.int64).reshape(-1, 3), np.asarray(lam)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return pts[order], lam[order]


def _primal_reference(xi, xi2, q, R, cutoff):
    """Scalar loop over the same window as ``collect_primal``."""
    pts, lams = [], []
    eq = np.exp(q)
    cutoff = kernels._widen(xi, xi2, q, cutoff, eq, 2 * R + cutoff + 1)
    w = cutoff * np.exp(-q)
    for x1 in range(-R, R + 1):
        for x2 in range(-R, R + 1):
            c = -(x1 * xi + x2 * xi2)
            lo = int(np.ceil(max(c - w, -cutoff)))
            hi = int(np.floor(min(c + w, cutoff)))
            for x0 in range(lo, hi + 1):
                if x0 == 0 and x1 == 0 and x2 == 0:
                    continue
                nrm = np.sqrt(float(x0 * x0 + x1 * x1 + x2 * x2))
                if nrm > cutoff:
                    continue
                dot = abs(x0 + x1 * xi + x2 * xi2) * eq
                lam = nrm if nrm > dot else dot
                if lam <= cutoff:
                    pts.append((x0, x1, x2))
                    lams.append(lam)
    return _sorted(pts, lams)


def _dual_reference(xi, xi2, q, R0, cutoff):
    """Scalar loop over the same window as ``collect_dual``."""
    pts, lams = [], []
    emq = np.exp(-q)
    cutoff = kernels._widen(xi, xi2, q, cutoff, 1.0, R0 * (1 + abs(xi) + abs(xi2)) + 2 * cutoff + 3)
    span = int(cutoff * np.sqrt(1.0 + xi * xi)) + 2
    for x0 in range(-R0, R0 + 1):
        c1 = x0 * xi
        c2 = x0 * xi2
        for d1 in range(-span, span + 1):
            x1 = int(np.floor(c1)) + d1
            for d2 in range(-span, span + 1):
                x2 = int(np.floor(c2)) + d2
                if x0 == 0 and x1 == 0 and x2 == 0:
                    continue
                w0 = x1 * xi2 - x2 * xi
                w1 = x2 - x0 * xi2
                w2 = x0 * xi - x1
                wn = np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
                nrm = np.sqrt(float(x0 * x0 + x1 * x1 + x2 * x2)) * emq
                lam = wn if wn > nrm else nrm
                if lam <= cutoff:
                    pts.append((x0, x1, x2))
                    lams.append(lam)
    return _sorted(pts, lams)


@pytest.mark.parametrize("q,R,cutoff", [(2.0, 12, 8.0), (5.0, 40, 30.0)])
def test_primal_matches_reference(q, R, cutoff):
    p1, l1 = _sorted(*kernels.collect_primal(XI, XI2, q, R, cutoff))
    p2, l2 = _primal_reference(XI, XI2, q, R, cutoff)
    assert p1.shape == p2.shape
    assert np.array_equal(p1, p2)
    assert np.allclose(l1, l2, rtol=1e-12)


@pytest.mark.parametrize("q,R0,cutoff", [(2.0, 10, 2.0), (6.0, 300, 1.5)])
def test_dual_matches_reference(q, R0, cutoff):
    p1, l1 = _sorted(*kernels.collect_dual(XI, XI2, q, R0, cutoff))
    p2, l2 = _dual_reference(XI, XI2, q, R0, cutoff)
    assert np.array_equal(p1, p2)
    assert np.allclose(l1, l2, rtol=1e-12)


def test_collect_primal_filters():
    q, R, cutoff = 3.0, 15, 10.0
    pts, lam = kernels.collect_primal(XI, XI2, q, R, cutoff)
    assert len(pts) == len(lam) > 0
    assert (np.abs(pts[:, :2]) <= R).all()
    assert (lam <= cutoff).all()
    # no zero vector
    assert (np.abs(pts).sum(axis=1) > 0).all()
    # lam really is the max of |x| and e^q |x . u|
    u = np.array([1.0, XI, XI2])
    for x, l in zip(pts[:20], lam[:20]):
        norm = np.sqrt(float(x @ x))
        proj = abs(float(x @ u)) * np.exp(q)
        assert abs(l - max(norm, proj)) < 1e-9 * max(1.0, l)


def test_collect_dual_filters():
    pts, lam = kernels.collect_dual(XI, XI2, 4.0, 60, 2.5)
    assert len(pts) > 0
    assert (lam <= 2.5).all()


@pytest.mark.parametrize("collect, args", [(kernels.collect_primal, (2.0, 12, 8.0)),
                                           (kernels.collect_dual, (2.0, 10, 2.0))])
def test_overflow_past_cap(monkeypatch, collect, args):
    """A box of _CAP cells is scanned; one of more raises TooLarge before
    any chunk is scanned."""
    chunks = []
    box = kernels._box

    def counted(gram, bound):
        for x in box(gram, bound):
            chunks.append(x[0].size)
            yield x

    monkeypatch.setattr(kernels, "_box", counted)
    expected = collect(XI, XI2, *args)
    cells = sum(chunks)
    monkeypatch.setattr(kernels, "_CAP", cells)
    _assert_same(collect(XI, XI2, *args), expected)
    chunks.clear()
    monkeypatch.setattr(kernels, "_CAP", cells - 1)
    with pytest.raises(kernels.TooLarge, match=f"{cells} cells"):
        collect(XI, XI2, *args)
    assert chunks == []


def test_box_refuses_coordinates_past_2_53():
    """The body 4((x0 - N x1)^2 + x2^2) + x1^2 <= 2 with N = 2^60 + 1 holds
    +-(N, 1, 0) only; its reduced box has 3 cells, whose float64 coordinates
    would round N to 2^60."""
    N = 2 ** 60 + 1
    gram = [[4, -4 * N, 0], [-4 * N, 4 * N * N + 1, 0], [0, 0, 4]]
    with pytest.raises(kernels.TooLarge, match="2\\^53"):
        next(kernels._box(gram, 2))


# --- order contract ------------------------------------------------------------
# Each kernel returns the points of its scalar reference, with the same lam to
# the bit, sorted by the key in which a full scan of its window meets them:
# (x1, x0 - window start, x2) for the primal kernel and
# (x1 - floor(x0 xi), x2 - floor(x0 xi^2), x0) for the dual kernel.

def _primal_key(xi, xi2, q, R, cutoff):
    cutoff = kernels._widen(xi, xi2, q, cutoff, float(np.exp(q)), 2 * R + cutoff + 1)
    w = cutoff * float(np.exp(-q))

    def key(x):
        x0, x1, x2 = x
        return x1, x0 - math.ceil(max(-(x1 * xi + x2 * xi2) - w, -cutoff)), x2
    return key


def _dual_key(xi, xi2, q, R0, cutoff):
    return lambda x: (x[1] - math.floor(x[0] * xi), x[2] - math.floor(x[0] * xi2), x[0])


KERNELS = {"primal": (kernels.collect_primal, _primal_reference, _primal_key),
           "dual": (kernels.collect_dual, _dual_reference, _dual_key)}


def _check_contract(side, xi, q, R, cutoff):
    collect, reference, key = KERNELS[side]
    pts, lam = collect(xi, xi * xi, q, R, cutoff)
    assert pts.dtype == np.int64 and pts.shape == (len(lam), 3) and lam.dtype == np.float64
    got = [tuple(int(v) for v in p) for p in pts]
    ref_pts, ref_lam = reference(xi, xi * xi, q, R, cutoff)
    assert dict(zip(got, lam.tolist())) == dict(zip(map(tuple, ref_pts.tolist()), ref_lam.tolist()))
    assert len(got) == len(ref_pts)
    keys = list(map(key(xi, xi * xi, q, R, cutoff), got))
    assert keys == sorted(keys)
    return len(got)


@pytest.mark.parametrize("side, xi, q, R, cutoff", [
    ("primal", XI, 9.0, 38, 37.8),        # narrow x0 windows
    ("primal", XI_ROY, 0.5, 4, 3.9),      # wide x0 windows
    ("dual", XI, 9.0, 900, 0.07),         # cutoff < 1/2: most x0 have no point
    ("dual", XI_ROY, 0.5, 8, 3.9),        # several x1, x2 per x0
])
def test_kernel_order_contract(side, xi, q, R, cutoff):
    assert _check_contract(side, xi, q, R, cutoff) > 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(KERNELS)), st.sampled_from([XI, XI_ROY]),
       st.floats(0.0, 10.0), st.integers(0, 10), st.floats(0.03, 3.5))
def test_kernel_order_contract_random_windows(side, xi, q, R, cutoff):
    _check_contract(side, xi, q, R, cutoff)


# --- the window scan -----------------------------------------------------------
# The numpy scan the kernels used before they reduced their bodies, kept as
# the reference: it evaluates every cell of a window that its masks prove is
# enough (primal: each chunk of x1 rows over its widest row's x2 range, with
# the x0 range of each (x1, x2) cell; dual: the x1 and x2 ranges of each x0)
# and sorts by the visiting key.

def _ranges(lo, hi):
    """Expand the integer ranges lo[i] .. hi[i] (empty where hi < lo): the
    index i and the offset k - lo[i] of each member k, in (i, k) order."""
    n = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(n.size), n)
    return i, np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)


class _WindowGather:
    """The kept points of all passes, sorted at the end by their visiting key."""

    def __init__(self):
        none = np.empty(0, dtype=np.int64)
        self.pts, self.lams = [np.empty((0, 3), dtype=np.int64)], [np.empty(0)]
        self.keys, self.n = [(none, none, none)], 0

    def add(self, x0, x1, x2, lam, key, cutoff):
        keep = np.nonzero((lam <= cutoff) & ((x0 != 0) | (x1 != 0) | (x2 != 0)))[0]
        self.n += keep.size
        if self.n > kernels._CAP:
            raise kernels.TooLarge(f"more than {kernels._CAP} candidate points")
        self.pts.append(np.stack((x0[keep], x1[keep], x2[keep]), axis=1))
        self.lams.append(lam[keep])
        self.keys.append([k[keep] for k in key])

    def result(self):
        order = np.lexsort([np.concatenate(k) for k in zip(*self.keys)][::-1])
        return np.concatenate(self.pts)[order], np.concatenate(self.lams)[order]


def _half_width(x1, R, cutoff):
    """The largest h <= R with fl(sqrt(x1^2 + h^2)) <= cutoff, or -1 if there
    is none: the x2 range [-h, h] of row x1."""
    h = min(R, int(math.sqrt(max(cutoff * cutoff - x1 * x1, 0.0))))
    while h < R and math.sqrt(x1 * x1 + (h + 1) * (h + 1)) <= cutoff:
        h += 1
    while h >= 0 and math.sqrt(x1 * x1 + h * h) > cutoff:
        h -= 1
    return h


def window_primal(xi, xi2, q, R, cutoff):
    xi, xi2, q, R, cutoff = float(xi), float(xi2), float(q), int(R), float(cutoff)
    out = _WindowGather()
    eq = float(np.exp(q))
    cutoff = kernels._widen(xi, xi2, q, cutoff, eq, 2 * R + cutoff + 1)
    w = cutoff * float(np.exp(-q))
    x2v = np.arange(-R, R + 1, dtype=np.float64)
    x2i = np.arange(-R, R + 1, dtype=np.int64)
    rows = max(1, kernels._CHUNK // (x2v.size * (int(2 * min(w, cutoff)) + 2)))
    for first in range(-R, R + 1, rows):
        last = min(first + rows, R + 1) - 1
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


def window_dual(xi, xi2, q, R0, cutoff):
    xi, xi2, q, R0, cutoff = float(xi), float(xi2), float(q), int(R0), float(cutoff)
    out = _WindowGather()
    emq = float(np.exp(-q))
    cutoff = kernels._widen(xi, xi2, q, cutoff, 1.0, R0 * (1 + abs(xi) + abs(xi2)) + 2 * cutoff + 3)
    for first in range(-R0, R0 + 1, kernels._CHUNK):
        x0i = np.arange(first, min(first + kernels._CHUNK, R0 + 1), dtype=np.int64)
        x0f = x0i.astype(np.float64)
        p1, p2 = x0f * xi, x0f * xi2
        b1, b2 = np.floor(p1), np.floor(p2)
        lo1, hi1 = np.ceil(p1 - b1 - cutoff), np.floor(p1 - b1 + cutoff)
        lo2, hi2 = np.ceil(p2 - b2 - cutoff), np.floor(p2 - b2 + cutoff)
        live = np.nonzero((lo1 <= hi1) & (lo2 <= hi2))[0]
        lo1, hi1 = lo1[live].astype(np.int64), hi1[live].astype(np.int64)
        lo2, hi2 = lo2[live].astype(np.int64), hi2[live].astype(np.int64)
        i, e1 = _ranges(lo1, hi1)
        j, e2 = _ranges(lo2[i], hi2[i])
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


WINDOW_SCAN = {"collect_primal": window_primal, "collect_dual": window_dual}


def _assert_same(got, ref, label=""):
    """The same points, in the same order, with the same lam to the bit."""
    (p1, l1), (p2, l2) = got, ref
    assert p1.dtype == p2.dtype == np.int64 and l1.dtype == l2.dtype == np.float64, label
    assert np.array_equal(p1, p2), label
    assert np.array_equal(l1.view(np.int64), l2.view(np.int64)), label


def bruteforce_calls(builder, qs):
    """(kernel name, arguments, result) of every kernel call minima_bruteforce
    makes for builder at each q."""
    calls = []

    def recorded(name, kernel):
        def call(*args):
            calls.append((name, args, kernel(*args)))
            return calls[-1][2]
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in WINDOW_SCAN:
            mp.setattr(kernels, name, recorded(name, getattr(kernels, name)))
        for q in qs:
            paramgeo.minima_bruteforce(builder, mpmath.mpf(q))
    return calls


# the brute-force q grids of the benchmark's oracle workload, without its shift
_LOW_Q = (0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0, 5.75, 6.5, 7.25, 8.0, 8.75, 9.5)
ORACLE_GRID = {"bl12": _LOW_Q + (13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 17.0),
               "roy212": _LOW_Q + (12.75, 13.25, 13.75, 14.0, 14.25, 14.5, 14.75)}


@pytest.mark.parametrize("seed", sorted(ORACLE_GRID))
def test_kernels_match_window_scan_on_oracle_grid(request, seed):
    """Every kernel call minima_bruteforce makes on the oracle grid returns
    the window scan's points, lam bits and order."""
    builder = paramgeo.CandidateBuilder(request.getfixturevalue(seed), prec=256)
    calls = bruteforce_calls(builder, ORACLE_GRID[seed])
    assert len(calls) == 2 * len(ORACLE_GRID[seed])
    for name, args, got in calls:
        _assert_same(got, WINDOW_SCAN[name](*args), (name, args))


@pytest.mark.parametrize("family, q", [(bl_family(1, 2), 17.36), (roy_family(2, 1, 2), 16.2)],
                         ids=["bl12-dual", "roy212-primal"])
def test_kernels_match_window_scan_at_float_cancellation(prog_twos, family, q):
    """The period-2 samples whose candidate third point has a float lam more
    than 10^-9 relative above its exact value (dual on bl(1,2), primal on
    roy(2,1,2))."""
    builder = paramgeo.CandidateBuilder(make_bundle(family, prog_twos), prec=256)
    for name, args, got in bruteforce_calls(builder, [q]):
        _assert_same(got, WINDOW_SCAN[name](*args), (name, args))


def _body_scale(side, xi, q, points=400):
    """The cutoff at which the side's body holds about `points` points: the
    primal body is a ball of radius c cut to a slab of width 2 c e^-q / |u|,
    the dual body a cylinder of radius c / |u| and length 2 c e^q."""
    u2 = 1 + xi * xi + xi ** 4
    vol = (min(4 * math.pi / 3, 2 * math.pi * math.exp(-q) / math.sqrt(u2)) if side == "primal"
           else 2 * math.pi * math.exp(q) / u2)
    return (points / vol) ** (1 / 3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(WINDOW_SCAN)), st.sampled_from([XI, XI_ROY]),
       st.floats(0.0, 17.0), st.floats(0.02, 1.0))
def test_kernels_match_window_scan_random_bodies(name, xi, q, t):
    """Bodies up to about 400 points with the radius minima_bruteforce gives
    each side."""
    side = name.split("_")[1]
    cutoff = t * _body_scale(side, xi, q)
    if side == "primal":
        R = math.floor(cutoff)
    else:
        R = math.ceil(cutoff * math.exp(q) * 1.01) + 1
    args = (xi, xi * xi, q, R, cutoff)
    _assert_same(getattr(kernels, name)(*args), WINDOW_SCAN[name](*args), args)


@pytest.mark.parametrize("name, args", [
    ("collect_primal", (XI, XI2, 0.5, 30, 30.0)),
    ("collect_dual", (XI, XI2, 6.0, 3000, 4.0)),
])
def test_box_of_several_chunks(monkeypatch, name, args):
    """A box of more than _CHUNK cells is scanned in chunks of at most
    _CHUNK cells, with the window scan's result."""
    chunks = []
    box = kernels._box

    def counted(gram, bound):
        for x in box(gram, bound):
            chunks.append(x[0].size)
            yield x

    monkeypatch.setattr(kernels, "_box", counted)
    got = getattr(kernels, name)(*args)
    assert sum(chunks) > kernels._CHUNK and max(chunks) <= kernels._CHUNK
    _assert_same(got, WINDOW_SCAN[name](*args))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=9, max_size=9), st.integers(0, 60))
def test_lll_basis_is_unimodular_and_reduced(entries, shift):
    """_lll returns a unimodular H with H G H^T as the Gram it reports, and
    that Gram is size-reduced and satisfies Lovasz's condition at 99/100."""
    a = [entries[0:3], entries[3:6], entries[6:9]]
    assume(kernels._det(a) != 0)
    # a Gram of very different scales along its axes, like the kernels' bodies
    a[0] = [x << shift for x in a[0]]
    gram = [[sum(x * y for x, y in zip(r, s)) for s in a] for r in a]
    h, g = kernels._lll(gram)
    assert abs(kernels._det(h)) == 1
    assert g == [[sum(h[i][m] * gram[m][n] * h[j][n] for m in range(3) for n in range(3))
                  for j in range(3)] for i in range(3)]
    # Gram-Schmidt in exact rationals
    mu = [[Fraction(0)] * 3 for _ in range(3)]
    b = [Fraction(0)] * 3
    for i in range(3):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b[i] = g[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(3) for j in range(i))
    assert all(b[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * b[k - 1] for k in (1, 2))
