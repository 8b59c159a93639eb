"""Diophantine exponents: closed forms from (sigma, delta, tau, sigma'),
empirical estimation from minima samples (with a Jarnik cross-check of the
lower third exponent), and the omega_2 sweep over the power-of-two seed
recipe.

Parametric exponents are denoted psi1_low, psi1_up, ..., psi3_up (lower/upper
j-th parametric exponents); standard ones omega2, omega2_hat, lambda2,
lambda2_hat.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

from .exactlin import DEFAULT_PRECISION
from .matseq import roy_bracket
from .sturm import h_of_sigma


class ImproperDelta(ValueError):
    pass


class BadWindow(ValueError):
    pass


class LowConfidence(ValueError):
    pass


# ---------------------------------------------------------------------------
# tagged values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exact:
    value: object

    @property
    def lo(self):
        return self.value

    @property
    def hi(self):
        return self.value

    @property
    def mid(self):
        return self.value

    def __repr__(self):
        return f"Exact({mpmath.nstr(mpmath.mpf(self.value), 12)})"


@dataclass(frozen=True)
class Interval:
    lo: object
    hi: object

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    def __repr__(self):
        return (f"Interval({mpmath.nstr(mpmath.mpf(self.lo), 12)}, "
                f"{mpmath.nstr(mpmath.mpf(self.hi), 12)})")


@dataclass(frozen=True)
class Empirical:
    est: object
    window: tuple           # (k_lo, k_hi) of the sample window

    @property
    def lo(self):
        return self.est

    @property
    def hi(self):
        return self.est

    @property
    def mid(self):
        return self.est

    def __repr__(self):
        return (f"Empirical({mpmath.nstr(mpmath.mpf(self.est), 12)}, "
                f"window={self.window})")


@dataclass
class ExponentSet:
    psi1_low: object = None
    psi1_up: object = None
    psi2_low: object = None
    psi2_up: object = None
    psi3_low: object = None
    psi3_up: object = None
    omega2: object = None
    omega2_hat: object = None
    lambda2: object = None
    lambda2_hat: object = None
    notes: dict = field(default_factory=dict)

    def table(self):
        out = []
        for name in ("psi1_low", "psi1_up", "psi2_low", "psi2_up", "psi3_low",
                     "psi3_up", "omega2", "omega2_hat", "lambda2", "lambda2_hat"):
            v = getattr(self, name)
            if v is not None:
                out.append((name, v))
        return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _theta(sigma, delta, tau, sigma_prime):
    """theta(delta): upper value of the lower second parametric exponent."""
    second = 1 / (2 + (1 - delta) * (1 + tau))
    if mpmath.isinf(sigma_prime):
        # (1+s')/((2-delta)(2+s')) -> 1/(2-delta) as s' -> infinity
        first = 1 / (2 - delta)
    else:
        first = (1 + sigma_prime) / ((2 - delta) * (2 + sigma_prime))
    return min(first, second)


def closed_form(sigma, delta, tau, sigma_prime,
                prec: int = DEFAULT_PRECISION) -> ExponentSet:
    with mpmath.workprec(prec):
        sigma = mpmath.mpf(sigma)
        delta = mpmath.mpf(delta)
        tau = mpmath.mpf(tau)
        sigma_prime = mpmath.mpf(sigma_prime)
        if delta >= sigma / (1 + sigma):
            raise ImproperDelta(
                f"delta = {delta} >= sigma/(1+sigma) = {sigma / (1 + sigma)}")
        X = (1 - delta) * (1 + sigma)
        h = h_of_sigma(sigma, prec)
        es = ExponentSet()
        es.psi1_low = Exact(sigma / ((2 - delta) * (1 + sigma)))
        es.psi1_up = Exact(1 / (X + 2))
        es.psi2_up = Exact(1 / (2 + sigma))
        es.psi3_low = Exact(X / (1 + 2 * X))
        b1 = (1 - delta) / (2 - delta)
        if delta <= h:
            es.psi3_up = Exact(b1)
        else:
            es.psi3_up = Interval(b1, max(b1, 1 / (2 - delta + sigma)))
        theta = _theta(sigma, delta, tau, sigma_prime)
        first = (1 - delta) * (1 + sigma) / ((2 - delta) * (1 + sigma) + 1)
        # the lower bound `first` decides: where it reaches theta the exponent
        # is theta itself
        es.psi2_low = Exact(theta) if first >= theta else Interval(first, theta)
        # standard exponents
        es.omega2 = Exact((2 - delta) / sigma + 1 - delta)
        es.omega2_hat = Exact(1 + X)
        es.lambda2_hat = Exact(X / (1 + X))
        if delta <= h:
            es.lambda2 = Exact(1 - delta)
        else:
            es.lambda2 = Interval(1 - delta, max(1 - delta, 1 / (1 - delta + sigma)))
        return es


# ---------------------------------------------------------------------------
# empirical estimation from minima samples
# ---------------------------------------------------------------------------

REQUIRED_KINDS = ("q_t", "d", "a_t", "c_end", "q_t1")


def empirical(samples, prec: int = DEFAULT_PRECISION) -> ExponentSet:
    """Estimate the six parametric exponents from MinimaSample objects taken at
    tagged breakpoint abscissas (sample.kind, sample.k set by the caller).
    Uses late-window extrema; the window is recorded on every estimate."""
    tagged = [s for s in samples if s.kind is not None and s.k is not None]
    kinds = {s.kind for s in tagged}
    missing = [k for k in REQUIRED_KINDS if k not in kinds]
    if missing:
        raise BadWindow(f"missing breakpoint kinds: {missing}")
    ks = sorted({s.k for s in tagged})
    if len(ks) < 2:
        raise LowConfidence(f"single-k window {ks}: error bars would be vacuous")
    k_mid = ks[len(ks) // 2]
    late = [s for s in tagged if s.k >= k_mid]
    window = (k_mid, ks[-1])

    def ratios(kind_set, j):
        return [s.L[j] / s.q for s in late if s.kind in kind_set]

    def agg(fn, kind_set, j):
        vals = ratios(kind_set, j)
        if not vals:
            raise BadWindow(f"no late samples of kinds {kind_set}")
        return fn(vals)

    with mpmath.workprec(prec):
        es = ExponentSet()
        es.psi1_low = Empirical(agg(min, {"q_t"}, 0), window)
        es.psi1_up = Empirical(agg(max, {"d"}, 0), window)
        es.psi2_up = Empirical(agg(max, {"a_t"}, 1), window)
        es.psi2_low = Empirical(agg(min, {"c_t", "q_t1", "d"}, 1), window)
        direct3 = agg(min, {"a_t", "b_t"}, 2)
        es.psi3_low = Empirical(direct3, window)
        es.psi3_up = Empirical(agg(max, {"q_t", "q_t1", "c_end"}, 2), window)
        # cross-check of the lower third exponent through the Jarnik relation
        p1u = es.psi1_up.est
        es.notes["psi3_low_jarnik"] = (1 - 2 * p1u) / (2 - 3 * p1u)
        return es


# ---------------------------------------------------------------------------
# omega2 sweep over seed triples
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    triple: tuple
    bracket: tuple          # certified (alpha, beta) for delta
    proper: bool
    omega2: tuple           # (lo, hi) closed-form interval from the bracket


@dataclass
class SweepReport:
    rows: list
    sigma: object
    delta_range: tuple      # [0, sigma/(1+sigma)]
    delta_cover_gap: object
    omega2_range: tuple     # [2/sigma, 1 + 2/sigma]
    omega2_cover_gap: object


RECIPE_K_MAX = 10


def recipe_triples():
    """(a, b, c) = (2^l, 2^(k-l)-1, 2^(k-l)) for 0 < l < k <= RECIPE_K_MAX."""
    out = []
    for k in range(2, RECIPE_K_MAX + 1):
        for l in range(1, k):
            out.append((2 ** l, 2 ** (k - l) - 1, 2 ** (k - l)))
    return out


def _cover_gap(intervals, lo, hi):
    """Largest uncovered gap of [lo, hi] by the closed intervals."""
    ivs = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    gap = mpmath.mpf(0)
    cur = lo
    for a, b in ivs:
        if a > cur:
            gap = max(gap, a - cur)
        cur = max(cur, b)
        if cur >= hi:
            break
    if cur < hi:
        gap = max(gap, hi - cur)
    return gap


def omega2_sweep(sigma, prec: int = DEFAULT_PRECISION) -> SweepReport:
    with mpmath.workprec(prec):
        sigma = mpmath.mpf(sigma)
        threshold = sigma / (1 + sigma)
        rows = []
        d_ivs = [(mpmath.mpf(0), mpmath.mpf(0))]   # unimodular seeds reach delta = 0
        o_ivs = []

        def omega2_of(d):
            return (2 - d) / sigma + 1 - d

        for (a, b, c) in recipe_triples():
            alpha, beta = roy_bracket(a, b, c, prec)
            proper = bool(beta < threshold)
            o = (omega2_of(beta), omega2_of(alpha))   # omega2 decreasing in delta
            rows.append(SweepRow(triple=(a, b, c), bracket=(alpha, beta),
                                 proper=proper, omega2=o))
            d_ivs.append((alpha, beta))
            o_ivs.append(o)
        o_lo, o_hi = 2 / sigma, 1 + 2 / sigma
        return SweepReport(
            rows=rows, sigma=sigma,
            delta_range=(mpmath.mpf(0), threshold),
            delta_cover_gap=_cover_gap(d_ivs, mpmath.mpf(0), threshold),
            omega2_range=(o_lo, o_hi),
            omega2_cover_gap=_cover_gap(
                o_ivs + [(o_hi, o_hi)], o_lo, o_hi),
        )
