"""Hot enumeration kernels for brute-force successive minima.

Both kernels enumerate integer points x = (x0, x1, x2) in numpy chunks and
return those whose parametric size is below a cutoff:

* primal: lam(x) = max(|x|_2, e^q |x . u|)           (u = (1, xi, xi^2))
* dual:   lam*(x) = max(|x ^ u|_2, e^{-q} |x|_2)

float64 is adequate for the brute-force window q <= ~14 (absolute error of the
inner products ~1e-11); callers re-evaluate the shortlisted points exactly.
"""
from __future__ import annotations

import numpy as np


class KernelOverflow(RuntimeError):
    pass


_CAP = 4_000_000


def _overflow():
    return KernelOverflow(f"more than {_CAP} candidate points; tighten the cutoff")


def collect_primal(xi: float, xi2: float, q: float, R: int, cutoff: float):
    """All nonzero integer points with lam(x) <= cutoff and |x|_2 <= cutoff,
    enumerated over |x1|, |x2| <= R.  Returns (points int64 (n,3), lam (n,))."""
    xi, xi2, q, R, cutoff = float(xi), float(xi2), float(q), int(R), float(cutoff)
    pts, lams, n = [np.empty((0, 3), dtype=np.int64)], [np.empty(0)], 0
    eq = float(np.exp(q))
    w = cutoff * float(np.exp(-q))
    x2v = np.arange(-R, R + 1, dtype=np.float64)
    x2i = np.arange(-R, R + 1, dtype=np.int64)
    span = int(2 * min(w, cutoff) + 3)
    for x1 in range(-R, R + 1):
        c = -(x1 * xi + x2v * xi2)
        base = np.ceil(np.maximum(c - w, -cutoff)).astype(np.int64)
        top = np.floor(np.minimum(c + w, cutoff)).astype(np.int64)
        for dx in range(span):
            x0 = base + dx
            mask = x0 <= top
            if not mask.any():
                continue
            x0f = x0.astype(np.float64)
            nrm = np.sqrt(x0f * x0f + float(x1 * x1) + x2v * x2v)
            dot = np.abs(x0f + x1 * xi + x2v * xi2) * eq
            lam = np.maximum(nrm, dot)
            mask &= (lam <= cutoff) & ~((x0 == 0) & (x1 == 0) & (x2i == 0))
            idx = np.nonzero(mask)[0]
            m = idx.size
            if m == 0:
                continue
            n += m
            if n > _CAP:
                raise _overflow()
            pts.append(np.stack((x0[idx], np.full(m, x1, dtype=np.int64), x2i[idx]), axis=1))
            lams.append(lam[idx])
    return np.concatenate(pts), np.concatenate(lams)


def collect_dual(xi: float, xi2: float, q: float, R0: int, cutoff: float):
    """All nonzero integer points with lam*(x) <= cutoff, enumerated over
    |x0| <= R0 with x1, x2 in windows around x0*xi, x0*xi^2."""
    xi, xi2, q, R0, cutoff = float(xi), float(xi2), float(q), int(R0), float(cutoff)
    pts, lams, n = [np.empty((0, 3), dtype=np.int64)], [np.empty(0)], 0
    emq = float(np.exp(-q))
    span = int(cutoff * float(np.sqrt(1.0 + xi * xi))) + 2
    x0i = np.arange(-R0, R0 + 1, dtype=np.int64)
    x0f = x0i.astype(np.float64)
    b1 = np.floor(x0f * xi).astype(np.int64)
    b2 = np.floor(x0f * xi2).astype(np.int64)
    for d1 in range(-span, span + 1):
        x1 = b1 + d1
        x1f = x1.astype(np.float64)
        for d2 in range(-span, span + 1):
            x2 = b2 + d2
            x2f = x2.astype(np.float64)
            w0 = x1f * xi2 - x2f * xi
            w1 = x2f - x0f * xi2
            w2 = x0f * xi - x1f
            wn = np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
            nrm = np.sqrt(x0f * x0f + x1f * x1f + x2f * x2f) * emq
            lam = np.maximum(wn, nrm)
            mask = (lam <= cutoff) & ~((x0i == 0) & (x1 == 0) & (x2 == 0))
            idx = np.nonzero(mask)[0]
            m = idx.size
            if m == 0:
                continue
            n += m
            if n > _CAP:
                raise _overflow()
            pts.append(np.stack((x0i[idx], x1[idx], x2[idx]), axis=1))
            lams.append(lam[idx])
    return np.concatenate(pts), np.concatenate(lams)
