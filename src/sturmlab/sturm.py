"""Index programs s = (s_k), the associated t_k / psi combinatorics, and the
continued-fraction quantities (sigma, tau, sigma') they determine.

A program is the data s_0 = -1, s_1 = 1, s_k >= 1 for k >= 2, described by an
explicit finite prefix plus a (non-empty) periodic tail.  The derived objects:

* t_k = s_0 + ... + s_k (so t_0 = -1, t_1 = 0, strictly increasing from k=1);
* psi(t_k) = t_{k-1} - 1 for k >= 1, psi(i) = i - 1 otherwise.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath

from .exactlin import DEFAULT_PRECISION, to_real


class BadSequence(ValueError):
    """Raised for programs violating s_0 = -1, s_1 = 1, s_k >= 1."""


class Unbounded(ValueError):
    """Raised when a numeric separation or a word recurrence does not terminate."""


# ---------------------------------------------------------------------------
# exact quadratic surds (p + q*sqrt(d)) / r
# ---------------------------------------------------------------------------

def _squarefree_split(d: int):
    """Return (s, f) with d = s * f^2 and s squarefree (d >= 0, trial division)."""
    if d < 0:
        raise ValueError("negative discriminant")
    f = 1
    s = d
    p = 2
    while p * p <= s:
        while s % (p * p) == 0:
            s //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return s, f


@dataclass(frozen=True)
class QuadSurd:
    """Exact real number (p + q*sqrt(d)) / r with integer p, q, r and d >= 0.

    Canonical form: d squarefree (d = 0 when q = 0), r > 0, gcd(p, q, r) = 1.
    """

    p: int
    q: int
    d: int
    r: int

    @staticmethod
    def make(p: int, q: int, d: int, r: int) -> "QuadSurd":
        if r == 0:
            raise ZeroDivisionError("zero denominator in surd")
        s, f = _squarefree_split(d)
        q *= f
        d = s
        if d <= 1:
            # sqrt(0) = 0, sqrt(1) = 1: fold into the rational part
            p += q * d
            q, d = 0, 0
        if q == 0:
            d = 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        return QuadSurd(p // g, q // g, d, r // g)

    @staticmethod
    def from_fraction(x) -> "QuadSurd":
        x = Fraction(x)
        return QuadSurd.make(x.numerator, 0, 0, x.denominator)

    def __add__(self, other):
        if not isinstance(other, QuadSurd):
            other = QuadSurd.from_fraction(other)
        if self.q and other.q and self.d != other.d:
            raise ValueError("cannot add surds over different radicands exactly")
        d = self.d or other.d
        return QuadSurd.make(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            d,
            self.r * other.r,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        if not isinstance(other, QuadSurd):
            other = QuadSurd.from_fraction(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QuadSurd):
            other = QuadSurd.from_fraction(other)
        if self.q and other.q and self.d != other.d:
            raise ValueError("cannot multiply surds over different radicands exactly")
        d = self.d or other.d
        return QuadSurd.make(
            self.p * other.p + self.q * other.q * d,
            self.p * other.q + self.q * other.p,
            d,
            self.r * other.r,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        # 1 / ((p + q sqrt d)/r) = r (p - q sqrt d) / (p^2 - q^2 d)
        denom = self.p * self.p - self.q * self.q * self.d
        if denom == 0:
            raise ZeroDivisionError("inverse of zero surd")
        return QuadSurd.make(self.r * self.p, -self.r * self.q, self.d, denom)

    def __truediv__(self, other):
        if not isinstance(other, QuadSurd):
            other = QuadSurd.from_fraction(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def sign(self) -> int:
        """Exact sign of the value."""
        # sign of (p + q sqrt d); r > 0 in canonical form
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return (self.q > 0) - (self.q < 0)
        # compare p vs -q sqrt(d): same sign -> sign is sign(p) unless magnitudes flip
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        # opposite signs: compare p^2 vs q^2 d
        lhs, rhs = self.p * self.p, self.q * self.q * self.d
        if lhs == rhs:
            return 0
        bigger_abs_rational = lhs > rhs
        if self.p > 0:
            return 1 if bigger_abs_rational else -1
        return -1 if bigger_abs_rational else 1

    def compare(self, other) -> int:
        """Exact trichotomy against another surd (possibly different radicand)."""
        if not isinstance(other, QuadSurd):
            other = QuadSurd.from_fraction(other)
        if self.d == other.d or self.q == 0 or other.q == 0:
            return (self - other).sign()
        # different radicands, self = (p1 + q1 sqrt d1) / r1 and other =
        # (p2 + q2 sqrt d2) / r2: the sign of x + c sqrt(d2), with the surd
        # x = p1 r2 - p2 r1 + q1 r2 sqrt(d1) and c = -q2 r1 != 0
        x = QuadSurd.make(self.p * other.r - other.p * self.r, self.q * other.r, self.d, 1)
        c = -other.q * self.r
        sx, sc = x.sign(), (c > 0) - (c < 0)
        if sx != -sc:
            return sc
        # opposite signs: the larger of |x| and |c| sqrt(d2) wins, and
        # x^2 - c^2 d2 is a surd over d1
        return sx * (x * x - c * c * other.d).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def to_real(self, prec: int = DEFAULT_PRECISION):
        with mpmath.workprec(prec):
            val = mpmath.mpf(self.p)
            if self.q:
                val += mpmath.mpf(self.q) * mpmath.sqrt(mpmath.mpf(self.d))
            return val / mpmath.mpf(self.r)

    def __str__(self):
        if self.q == 0:
            return f"{self.p}/{self.r}" if self.r != 1 else str(self.p)
        return f"({self.p} + {self.q}*sqrt({self.d}))/{self.r}"


def cf_purely_periodic(quotients) -> QuadSurd:
    """Value x of the purely periodic continued fraction [a0; a1, ..., a_{n-1}, x].

    All quotients must be positive integers; returns the positive root.
    """
    quotients = list(quotients)
    if not quotients or any(a < 1 for a in quotients):
        raise BadSequence(f"purely periodic quotients must be >= 1, got {quotients}")
    # convergents of the finite word
    p_prev, p_cur = 1, quotients[0]
    q_prev, q_cur = 0, 1
    for a in quotients[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    # x = (p_cur x + p_prev) / (q_cur x + q_prev)
    # -> q_cur x^2 + (q_prev - p_cur) x - p_prev = 0
    A, B, C = q_cur, q_prev - p_cur, -p_prev
    disc = B * B - 4 * A * C
    return QuadSurd.make(-B, 1, disc, 2 * A)


def cf_eventually_periodic(prefix, period) -> QuadSurd:
    """Value of [prefix...; overline(period...)] with positive integer quotients."""
    x = cf_purely_periodic(period)
    for a in reversed(list(prefix)):
        x = QuadSurd.from_fraction(a) + x.inverse()
    return x


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

_TEXT_RE = re.compile(r"^\s*prefix\s*=\s*\[([^\]]*)\]\s*;\s*period\s*=\s*\[([^\]]*)\]\s*$")


@dataclass
class SturmianProgram:
    """Eventually periodic program s_0 = -1, s_1 = 1, s_k >= 1 (k >= 2)."""

    prefix: list
    period: list
    _t_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self.prefix = [int(v) for v in self.prefix]
        self.period = [int(v) for v in self.period]
        if len(self.prefix) < 2 or self.prefix[0] != -1 or self.prefix[1] != 1:
            raise BadSequence(f"program must start with s_0=-1, s_1=1; got prefix {self.prefix}")
        if any(v < 1 for v in self.prefix[2:]):
            raise BadSequence(f"s_k must be >= 1 for k >= 2; got prefix {self.prefix}")
        if not self.period:
            raise BadSequence("period must be non-empty (the program is infinite)")
        if any(v < 1 for v in self.period):
            raise BadSequence(f"period terms must be >= 1; got {self.period}")
        self._t_cache = [-1]  # t_0

    # --- construction -----------------------------------------------------
    @staticmethod
    def all_ones() -> "SturmianProgram":
        return SturmianProgram([-1, 1], [1])

    @staticmethod
    def parse(text: str) -> "SturmianProgram":
        m = _TEXT_RE.match(text)
        if not m:
            raise BadSequence(f"cannot parse program text {text!r}")

        def ints(s):
            s = s.strip()
            return [int(v) for v in s.split(",")] if s else []

        return SturmianProgram(ints(m.group(1)), ints(m.group(2)))

    # --- basic accessors ---------------------------------------------------
    def s(self, k: int) -> int:
        if k < 0:
            raise BadSequence(f"s_k undefined for k={k}")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.period[(k - len(self.prefix)) % len(self.period)]

    def t(self, k: int) -> int:
        if k < 0:
            raise BadSequence(f"t_k undefined for k={k}")
        while len(self._t_cache) <= k:
            j = len(self._t_cache)
            self._t_cache.append(self._t_cache[-1] + self.s(j))
        return self._t_cache[k]

    @property
    def is_fibonacci(self) -> bool:
        """True when s_k = 1 for every k >= 1 (then t_k = k - 1)."""
        return all(v == 1 for v in self.prefix[1:]) and all(v == 1 for v in self.period)

    # --- combinatorics -----------------------------------------------------
    def t_index_of(self, i: int) -> Optional[int]:
        """Return k >= 1 with t_k = i, or None.  (t_k, k >= 1, increases from 0.)"""
        if i < 0:
            return None
        k, l = self.block_of(i)
        return k if l == 0 else None

    def block_of(self, j: int):
        """For j >= 0 return (k, l) with k >= 1, t_k <= j < t_{k+1}, l = j - t_k."""
        if j < 0:
            raise BadSequence(f"block decomposition needs j >= 0, got {j}")
        self.t(j + 2)  # t_k >= k - 1, so the cache now passes j
        k = bisect_right(self._t_cache, j) - 1
        return k, j - self._t_cache[k]

    def psi(self, i: int) -> int:
        """psi(t_k) = t_{k-1} - 1 for k >= 1; psi(i) = i - 1 otherwise."""
        k = self.t_index_of(i)
        return i - 1 if k is None else self.t(k - 1) - 1


# ---------------------------------------------------------------------------
# continued-fraction quantities
# ---------------------------------------------------------------------------

@dataclass
class CFQuantities:
    sigma: object          # mpf
    tau: object            # mpf
    sigma_prime: object    # mpf or math.inf
    sigma_surd: Optional[QuadSurd] = None
    tau_surd: Optional[QuadSurd] = None
    sigma_prime_surd: Optional[QuadSurd] = None


def _phase_surds(prog: SturmianProgram):
    """For each phase of the periodic tail, the limit of [s_m; s_{m-1}, ...]
    along m -> infinity in that phase class, as an exact surd.

    Reading the program downward from a deep index m, the quotients cycle the
    reversed period; the limit is the corresponding purely periodic value.
    Returns a list of (value_surd, s_next) where s_next is the program value
    following the phase's leading index (i.e. s_{m+1}).
    """
    p = len(prog.period)
    out = []
    for phase in range(p):
        # leading index m with (m - len(prefix)) % p == phase; downward word:
        word = [prog.period[(phase - j) % p] for j in range(p)]
        val = cf_purely_periodic(word)
        s_next = prog.period[(phase + 1) % p]
        out.append((val, s_next))
    return out


def quantities(prog: SturmianProgram, prec: int = DEFAULT_PRECISION) -> CFQuantities:
    """sigma = 1/limsup [s_{k+1}; s_k, ..., s_1], tau = limsup 1/[s_k; ...; s_1],
    sigma' = liminf over k with s_{k+1} > 1 of 1/[s_k; ...; s_1].

    Exact surd values via the periodic tail: the limits do not depend on the
    prefix, whatever its length.
    """
    phases = _phase_surds(prog)
    sup = max(v for v, _ in phases)
    inf = min(v for v, _ in phases)
    sigma_surd = 1 / sup
    tau_surd = 1 / inf
    restricted = [v for v, s_next in phases if s_next > 1]
    sigma_prime_surd = (1 / max(restricted)) if restricted else None
    sigma_prime = math.inf if sigma_prime_surd is None else sigma_prime_surd.to_real(prec)
    return CFQuantities(
        sigma=sigma_surd.to_real(prec),
        tau=tau_surd.to_real(prec),
        sigma_prime=sigma_prime,
        sigma_surd=sigma_surd,
        tau_surd=tau_surd,
        sigma_prime_surd=sigma_prime_surd,
    )


def h_of_sigma(sigma, prec: int = DEFAULT_PRECISION):
    """h(sigma) = sigma/2 + 1 - sqrt((sigma/2)^2 + 1); always <= sigma/(1+sigma)."""
    with mpmath.workprec(prec):
        s = to_real(sigma, prec) if not isinstance(sigma, mpmath.mpf) else sigma
        return s / 2 + 1 - mpmath.sqrt((s / 2) ** 2 + 1)


# ---------------------------------------------------------------------------
# words and spectrum helpers
# ---------------------------------------------------------------------------

def characteristic_word(s1_prime: int, prog: SturmianProgram, a, b, n: int):
    """First n letters of the limit of m_0 = b, m_1 = b^{s1'-1} a,
    m_{k+1} = m_k^{s'_{k+1}} m_{k-1}, where s'_k = s_k of `prog` for k >= 2.
    The words a and b are strings or lists; the result has their type."""
    if s1_prime < 1:
        raise BadSequence("s1' must be >= 1")
    m_prev = b
    m_cur = b * (s1_prime - 1) + a
    k = 1
    while len(m_cur) < n:
        m_prev, m_cur = m_cur, m_cur * prog.s(k + 1) + m_prev
        k += 1
        if len(m_cur) == len(m_prev):  # lengths grow unless b is empty
            raise Unbounded("word recurrence stalled")
    return m_cur[:n]


def u_value(a: int, n: int) -> QuadSurd:
    """[u_{a,n}] = [n; overline(a, n)] as an exact surd."""
    if a < 1 or n < 1:
        raise BadSequence("need a, n >= 1")
    return cf_eventually_periodic([n], [a, n])


def delta_an(a: int, n: int) -> QuadSurd:
    """delta_{a,n} = 2 [u_{a,n}] = n + n sqrt(1 + 4/(a n))."""
    return u_value(a, n) * 2


@dataclass
class SpectrumEndpoints:
    named: dict            # label -> QuadSurd
    intervals: list        # list of (label, lo QuadSurd, hi QuadSurd or None for +inf)


def spectrum_endpoints() -> SpectrumEndpoints:
    """Distinguished points delta_{a,n} and the closure union of intervals."""
    named = {
        "delta_1_1": delta_an(1, 1),                      # 1 + sqrt 5
        "delta_1_2": delta_an(1, 2),                      # 2 + 2 sqrt 3
        "delta_2_2": delta_an(2, 2),                      # 2 + 2 sqrt 2
        "delta_3_3": delta_an(3, 3),                      # 3 + sqrt 13
    }
    intervals = [
        ("interval_1", QuadSurd.make(1, 1, 5, 1), QuadSurd.make(2, 1, 5, 1)),
        ("interval_2", QuadSurd.make(2, 2, 2, 1), QuadSurd.make(3, 2, 3, 1)),
        ("interval_3", QuadSurd.make(3, 1, 13, 1), None),
    ]
    return SpectrumEndpoints(named=named, intervals=intervals)
