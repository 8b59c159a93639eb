import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlab import kernels


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
    n = len(collect(XI, XI2, *args)[1])
    monkeypatch.setattr(kernels, "_CAP", n)
    assert len(collect(XI, XI2, *args)[1]) == n
    monkeypatch.setattr(kernels, "_CAP", n - 1)
    with pytest.raises(kernels.KernelOverflow):
        collect(XI, XI2, *args)


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
