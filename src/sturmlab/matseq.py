"""Seed construction (families, admissibility solving) and the Sturmian
recurrence x_{k+1} = x_k^{s_{k+1}} x_{k-1} (`sturm.Ladder`), walked once for
each product: the matrices w_k (`MatrixSequence`), their residues,
determinants and p-bit enclosures (its sibling ladders), and the integer
coefficients of the idealized log-norm sequence hat-W (`HatW`); with growth /
determinant-exponent diagnostics.

Norms here are sup norms (max absolute coefficient) unless stated otherwise.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import mpmath

from .exactlin import DEFAULT_PRECISION, IntMat2, SymVec, det3, log_real
from .sturm import Ladder, SturmianProgram


class BadRoyTriple(ValueError):
    pass


class EqualLetters(ValueError):
    pass


class DegenerateSeed(ValueError):
    pass


class SingularN(ValueError):
    pass


class DegenerateGrowth(ValueError):
    pass


def admissibility_checks(w0: IntMat2, w1: IntMat2, N: IntMat2) -> dict:
    """The three symmetry conditions defining admissibility of N for (w0, w1)."""
    return {
        "w1N_symmetric": (w1 @ N).is_symmetric(),
        "w0Nt_symmetric": (w0 @ N.transpose()).is_symmetric(),
        "w1w0Nt_symmetric": (w1 @ w0 @ N.transpose()).is_symmetric(),
    }


@dataclass(frozen=True)
class MatrixSeed:
    w0: IntMat2
    w1: IntMat2
    N: IntMat2
    family: str
    params: tuple

    def __post_init__(self):
        if self.w0.det() == 0 or self.w1.det() == 0:
            raise DegenerateSeed("w0 and w1 must be invertible")
        checks = admissibility_checks(self.w0, self.w1, self.N)
        if not all(checks.values()):
            raise DegenerateSeed(f"N fails admissibility: {checks}")
        if self.N.det() == 0:
            raise SingularN("admissible N has determinant 0")

    @property
    def det_N(self) -> int:
        return self.N.det()

    @property
    def tr_JN(self) -> int:
        return self.N.tr_J()

    def N_parity(self, k: int) -> IntMat2:
        """N_k = N for even k, N^T for odd k."""
        return self.N if k % 2 == 0 else self.N.transpose()


def solve_admissibility(w0: IntMat2, w1: IntMat2) -> IntMat2:
    """Solve the three linear symmetry conditions for N.

    The conditions are a 3x4 integer system in (n11, n12, n21, n22).  When it
    has rank 3 its null space is spanned by the vector of signed 3x3 minors
    (the j-th minor leaves out column j); returns that vector made primitive,
    with its first nonzero entry (row-major) positive.
    """
    if w0.det() == 0 or w1.det() == 0:
        raise DegenerateSeed("w0 and w1 must be invertible")

    def sym_row_MN(m: IntMat2):
        # (M N)_{12} - (M N)_{21} = 0 as coefficients on (n11, n12, n21, n22)
        return [-m.c, m.a, -m.d, m.b]

    def sym_row_MNt(m: IntMat2):
        # (M N^T)_{12} - (M N^T)_{21} = 0
        return [-m.c, -m.d, m.a, m.b]

    rows = [sym_row_MN(w1), sym_row_MNt(w0), sym_row_MNt(w1 @ w0)]

    def minor(j):
        # determinant of the three rows with column j left out
        return det3(*(SymVec(*(row[:j] + row[j + 1:])) for row in rows))

    minors = [(-1) ** j * minor(j) for j in range(4)]
    g = math.gcd(*minors)
    if g == 0:
        raise DegenerateSeed("the symmetry conditions have rank < 3: "
                             "the solution space has dimension > 1")
    if next(v for v in minors if v != 0) < 0:
        g = -g
    N = IntMat2(*(v // g for v in minors))
    if N.det() == 0:
        raise SingularN(f"solved N = {N} is singular")
    return N


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def roy_family(a: int, b: int, c: int) -> MatrixSeed:
    """Seed w0 = [[1,b],[a,a(b+1)]], w1 = [[1,c],[a,a(c+1)]] with a >= 2, c >= b >= 1."""
    if not (a >= 2 and b >= 1 and c >= b):
        raise BadRoyTriple(f"need a >= 2 and c >= b >= 1, got (a,b,c)=({a},{b},{c})")
    w0 = IntMat2(1, b, a, a * (b + 1))
    w1 = IntMat2(1, c, a, a * (c + 1))
    Nt = IntMat2(-1 + a * (b + 1) * (c + 1), -a * (b + 1), -a * (c + 1), a)
    N = Nt.transpose()
    seed = MatrixSeed(w0, w1, N, family="roy", params=(a, b, c))
    assert seed.tr_JN == a * (b - c)
    return seed


def bl_family(a: int, b: int, s1_prime: int = 1) -> MatrixSeed:
    """Unimodular seed from two letters: w0 = B, w1 = B^{s1'-1} A with
    A = [[a,1],[1,0]], B = [[b,1],[1,0]]; requires a != b."""
    if a == b:
        raise EqualLetters(f"need a != b, got a = b = {a}")
    if a < 1 or b < 1 or s1_prime < 1:
        raise DegenerateSeed("need a, b, s1' >= 1")
    A = IntMat2(a, 1, 1, 0)
    B = IntMat2(b, 1, 1, 0)
    w0 = B
    w1 = (B ** (s1_prime - 1)) @ A
    return MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="bl",
                      params=(a, b, s1_prime))


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

class MatrixSequence(Ladder):
    """The matrix ladder w_{k+1} = w_k^{s_{k+1}} w_{k-1} from w0 and w1, and
    three sibling ladders of the same recurrence: `residues`, the rungs mod
    `modulus` = |det w0 det w1 det N|; `dets`, the rungs' determinants
    d_k^l d_{k-1} (d_k = det w_k); and `enclosures(p)`, p-bit enclosures of
    the rungs.

    Every prime of det w_k, of a rung's det(w_k)^l det(w_{k-1}) and of
    det y_i = (rung det) det N divides `modulus`, so a gcd with one of these
    determinants can be read first off the residues."""

    def __init__(self, seed: MatrixSeed, prog: SturmianProgram):
        super().__init__(prog, seed.w0, seed.w1, operator.matmul)
        self.seed = seed
        self.dets = Ladder(prog, seed.w0.det(), seed.w1.det(), operator.mul)
        P = self.modulus = abs(self.dets.w(0) * self.dets.w(1) * seed.det_N)
        self.residues = Ladder(prog, seed.w0 % P, seed.w1 % P, lambda x, y: (x @ y) % P)
        self._enclosures = {}

    def enclosures(self, p: Optional[int]):
        """The ladder of enclosures (e, lo, hi) with 2^e lo <= . <= 2^e hi
        entrywise, memoized per p.  A product multiplies lo by lo and hi by hi,
        then shifts both right by the s that leaves max(hi) p bits, floor for lo
        and ceiling for hi.  p = None gives the exact ladder itself, whose rung
        M is its own enclosure (0, M, M)."""
        if p is None:
            return self
        if p not in self._enclosures:
            def mul(x, y):
                e, lo, hi = x[0] + y[0], x[1] @ y[1], x[2] @ y[2]
                s = max(0, hi.sup_norm().bit_length() - p)
                if s:
                    lo = IntMat2(lo.a >> s, lo.b >> s, lo.c >> s, lo.d >> s)
                    hi = IntMat2(-(-hi.a >> s), -(-hi.b >> s), -(-hi.c >> s), -(-hi.d >> s))
                return e + s, lo, hi

            w0, w1 = self.seed.w0, self.seed.w1
            self._enclosures[p] = Ladder(self.prog, (0, w0, w0), (0, w1, w1), mul)
        return self._enclosures[p]

    def tr(self, k: int) -> int:
        return self.w(k).trace()

    def det(self, k: int) -> int:
        """d_k = det w_k, by d_{k+1} = d_k^{s_{k+1}} d_{k-1} (`dets`)."""
        return self.dets.w(k)

    def norm(self, k: int) -> int:
        return self.w(k).sup_norm()

    def log_norm(self, k: int, prec: int = DEFAULT_PRECISION):
        return log_real(self.norm(k), prec)

    def is_unimodular(self) -> bool:
        return abs(self.det(0)) == 1 and abs(self.det(1)) == 1


# ---------------------------------------------------------------------------
# growth diagnostics
# ---------------------------------------------------------------------------

def lemma_shape_ok(m: IntMat2) -> bool:
    """Entrywise shape 1 <= a <= min(b, c) <= max(b, c) <= d."""
    return 1 <= m.a <= min(m.b, m.c) <= max(m.b, m.c) <= m.d


def mirror_shape_ok(m: IntMat2) -> bool:
    """The mirror image of `lemma_shape_ok`: 0 <= d <= min(b, c) <= max(b, c) <= a."""
    return 0 <= m.d <= min(m.b, m.c) <= max(m.b, m.c) <= m.a


@dataclass
class GrowthReport:
    ratio_min: float        # num / den, correctly rounded; informational
    ratio_max: float
    shape_ok: bool          # w0 and w1 both have Roy's shape, or both its mirror image
    k_max: int


# the first precision of the growth scan's enclosures, in bits; doubled on a rescan
_GROWTH_BITS = 96


def check_mult_growth(seq: MatrixSequence, k_max: int) -> GrowthReport:
    """The ratios num / den = ||w_k^l w_{k-1}|| / (||w_k|| ||w_k^{l-1} w_{k-1}||)
    for k = 1..k_max, 1 <= l <= s_{k+1} + 1 (sup norms), for information: the
    smallest and the largest of the floats num / den, correctly rounded.

    They are read from p-bit enclosures of the rungs
    (`MatrixSequence.enclosures`), not from the rungs themselves.  Every entry
    of w0 and w1 of a roy or bl seed is >= 0, so every rung's entries are >= 0,
    and on nonnegative matrices products and sup norms are monotone entrywise:
    2^e lo <= M <= 2^e hi gives 2^e ||lo|| <= ||M|| <= 2^e ||hi||, and
    lo lo' <= M M' <= hi hi' (floor keeps lo >= 0).  So num / den lies between
    num_lo 2^D / den_hi and num_hi 2^D / den_lo, D the difference of the
    exponents.  CPython's int / int true division is correctly rounded and
    monotone, so when those two floats are equal, that float is the correctly
    rounded num / den.  If a ratio is undecided, or a lower bound is 0, the
    scan doubles p and starts again.  This ends: once p is at least the bit
    length of every entry, every shift is 0 and lo = hi = the exact rung.  A
    seed with a negative entry (custom seeds only) is scanned once on the exact
    ladder (p = None), whose rungs it shares, so its ratios are the exact
    ones.  As rounding is monotone, the smallest and largest floats are the
    rounded exact extremes.

    `shape_ok` proves num >= den at every k and l.  Roy's shape
    1 <= a <= min(b, c) <= max(b, c) <= d (`lemma_shape_ok`, every roy seed) is
    kept by products: for M, M' of that shape, MM' = [[A, B], [C, D]] with
    A = aa' + bc', B = ab' + bd', C = ca' + dc', D = cb' + dd', and termwise
    1 <= aa' <= ab', ca' and bc' <= bd', dc'; likewise B, C <= D.  Its sup norm is
    d, and D >= dd', so ||MM'|| >= ||M|| ||M'||.  Its mirror image
    0 <= d <= min(b, c) <= max(b, c) <= a (`mirror_shape_ok`, every bl seed, as
    it holds for every product of the [[x, 1], [1, 0]], x >= 1) is kept the same way
    with the inequalities reversed; its sup norm is a, and A >= aa'.  Every rung
    w_k^l w_{k-1} is a product of w0 and w1, and the rung at l is w_k times the
    rung at l - 1."""
    if k_max < 1:
        raise DegenerateGrowth(f"no growth ratio for k_max = {k_max} < 1")
    w0, w1 = seq.w(0), seq.w(1)
    p = _GROWTH_BITS if min(w0.a, w0.b, w0.c, w0.d, w1.a, w1.b, w1.c, w1.d) >= 0 else None
    while (ratios := _growth_scan(seq.enclosures(p), k_max, p is None)) is None:
        p *= 2
    return GrowthReport(ratio_min=min(ratios), ratio_max=max(ratios),
                        shape_ok=any(shape(w0) and shape(w1)
                                     for shape in (lemma_shape_ok, mirror_shape_ok)),
                        k_max=k_max)


def _growth_scan(rungs: Ladder, k_max: int, exact: bool) -> Optional[list]:
    """The floats num / den of `check_mult_growth`, read off the enclosure
    ladder `rungs` (the exact ladder if `exact`, each rung M read as (0, M, M)),
    or None if one is undecided or has a lower bound 0."""
    def norms(x):
        e, lo, hi = (0, x, x) if exact else x
        return e, lo.sup_norm(), hi.sup_norm()

    ratios = []
    prev, cur = norms(rungs.w(0)), norms(rungs.w(1))
    for k in range(1, k_max + 1):
        (e_a, a_lo, a_hi), (e_b, b_lo, b_hi) = cur, prev
        s = rungs.prog.s(k + 1)
        for l in range(1, s + 2):
            e_n, n_lo, n_hi = rung = norms(rungs.ladder(k, l))
            shift = e_n - e_a - e_b
            num_lo, den_lo = n_lo << shift, a_lo * b_lo
            if not (num_lo and den_lo):
                return None
            lo = num_lo / (a_hi * b_hi)
            if lo != (n_hi << shift) / den_lo:
                return None
            ratios.append(lo)
            e_b, b_lo, b_hi = rung
            if l == s:
                nxt = rung
        prev, cur = cur, nxt
    return ratios


@dataclass
class DeltaReport:
    deltas: dict            # k -> mpf  (only for k with ||w_k|| > 1)
    delta_hat: object       # mpf: last available delta_k
    increments: dict        # k -> |delta_k - delta_{k-1}| where both defined
    bracket: Optional[tuple]  # (alpha, beta) for roy seeds, when its base case holds
    exact_zero: bool        # unimodular seeds: delta = 0 exactly
    k_max: int


def delta_estimate(seq: MatrixSequence, k_max: int, prec: int = DEFAULT_PRECISION) -> DeltaReport:
    """delta_k = log|det w_k| / log||w_k|| and, for roy seeds, the certified
    bracket [log a / log(2a(c+1)), log a / log(a(b+1))].

    The bracket comes from the two-sided bound (2||w_k||)^alpha <= |det w_k|
    <= ||w_k||^beta, which for every k >= 0 follows from its integer form
    |det w_k| = a^{f_k}, (a(b+1))^{f_k} <= ||w_k|| and 2||w_k|| <= (2a(c+1))^{f_k},
    with f_0 = f_1 = 1 and f_{k+1} = s_{k+1} f_k + f_{k-1}.  That form holds at
    k = 0, 1 when w0 and w1 have Roy's shape (`lemma_shape_ok`), |det w0| =
    |det w1| = a and a(b+1) <= ||w0||, ||w1|| <= a(c+1) (`_bracket_holds`), and
    passes from k - 1, k to k + 1 by induction, w_{k+1} being the product of
    s_{k+1} factors w_k and one w_{k-1}:

    * d_{k+1} = d_k^{s_{k+1}} d_{k-1} (d_k = det w_k) gives |det w_{k+1}| =
      a^{s_{k+1} f_k + f_{k-1}} = a^{f_{k+1}};
    * Roy's shape is kept by products, and on it ||MM'|| >= ||M|| ||M'||
      (`check_mult_growth`), so ||w_{k+1}|| >= ||w_k||^{s_{k+1}} ||w_{k-1}||
      >= (a(b+1))^{f_{k+1}};
    * ||MM'|| <= 2||M|| ||M'|| for any 2x2 matrices, so 2||MM'|| <=
      (2||M||)(2||M'||) and 2||w_{k+1}|| <= (2||w_k||)^{s_{k+1}} (2||w_{k-1}||)
      <= (2a(c+1))^{f_{k+1}}.

    On the upper side the multiplicativity constant is 1, so beta carries no
    extra factor 2; with a factor 2 there the base case k = 0 already fails
    (a(b+1))^beta < a, and empirically delta sits outside such an interval.
    When the base case fails the bracket is None."""
    deltas = {}
    with mpmath.workprec(prec):
        for k in range(k_max + 1):
            if seq.norm(k) <= 1:
                continue
            deltas[k] = log_real(abs(seq.det(k)), prec) / seq.log_norm(k, prec)
    if not deltas:
        raise DegenerateGrowth("no index with ||w_k|| > 1")
    increments = {}
    keys = sorted(deltas)
    for a, b in zip(keys, keys[1:]):
        if b == a + 1:
            increments[b] = abs(deltas[b] - deltas[a])
    bracket = None
    if seq.seed.family == "roy" and _bracket_holds(seq):
        bracket = roy_bracket(*seq.seed.params, prec)
    return DeltaReport(
        deltas=deltas,
        delta_hat=deltas[keys[-1]],
        increments=increments,
        bracket=bracket,
        exact_zero=seq.is_unimodular(),
        k_max=k_max,
    )


def roy_bracket(a: int, b: int, c: int, prec: int = DEFAULT_PRECISION) -> tuple:
    """(log a / log(2a(c+1)), log a / log(a(b+1))): the bracket of delta for
    the roy seed (a, b, c)."""
    with mpmath.workprec(prec):
        la = mpmath.log(a)
        return la / mpmath.log(2 * a * (c + 1)), la / mpmath.log(a * (b + 1))


def _bracket_holds(seq: MatrixSequence) -> bool:
    """The base case k = 0, 1 of the bracket's integer form (`delta_estimate`):
    w0 and w1 have Roy's shape, |det w0| = |det w1| = a and
    a(b+1) <= ||w0||, ||w1|| <= a(c+1)."""
    a, b, c = seq.seed.params
    return all(lemma_shape_ok(seq.w(k)) and abs(seq.det(k)) == a
               and a * (b + 1) <= seq.norm(k) <= a * (c + 1) for k in (0, 1))


# delta_hat is taken at the deepest k whose ||w_k|| has at most this many bits
DELTA_BITS = 2 ** 14


@dataclass
class DeltaChoice:
    value: object                   # mpf: the delta every caller uses
    source: str
    report: Optional[DeltaReport]   # None for unimodular seeds


def resolve_delta(seq: MatrixSequence, prec: int = DEFAULT_PRECISION) -> DeltaChoice:
    """The delta of a seed: exactly 0 for unimodular seeds, otherwise
    delta_hat = delta_{k_max} for the largest k_max with ||w_{k_max}|| of at
    most DELTA_BITS bits.  A bit budget rather than a fixed index bounds the
    cost on every program: log||w_k|| grows like f_{k+1} = s_{k+1} f_k + f_{k-1},
    much faster on the period-2 program than on the Fibonacci one.  The
    report's roy bracket is used only to certify properness."""
    if seq.is_unimodular():
        return DeltaChoice(mpmath.mpf(0), "exact (unimodular seed)", None)
    k_max = 0
    while seq.norm(k_max + 1).bit_length() <= DELTA_BITS:
        k_max += 1
    rep = delta_estimate(seq, k_max, prec)
    return DeltaChoice(rep.delta_hat, f"empirical delta_hat at k = {k_max}", rep)


# ---------------------------------------------------------------------------
# idealized log norms
# ---------------------------------------------------------------------------

class HatW:
    """log W-hat_k: the solution of log W_{k+1} = s_{k+1} log W_k + log W_{k-1}
    anchored at (k0 - 1, k0) with the true log norms; extended downward while
    the extrapolated values stay positive."""

    def __init__(self, seq: MatrixSequence, k0: int = 2, prec: int = DEFAULT_PRECISION):
        if k0 < 1:
            raise ValueError("k0 must be >= 1")
        if seq.norm(k0 - 1) <= 1 or seq.norm(k0) <= 1:
            raise DegenerateGrowth(
                f"anchor norms ||w_{k0 - 1}|| = {seq.norm(k0 - 1)}, ||w_{k0}|| = {seq.norm(k0)} "
                "must both exceed 1; pick a larger k0"
            )
        self._k0 = k0
        with mpmath.workprec(prec):
            self._anchors = (seq.log_norm(k0 - 1, prec), seq.log_norm(k0, prec))
        # (P_k, Q_k) = (1, 0), (0, 1) at k = 0, 1: log W_k = P_k log W_0 + Q_k log W_1
        self._pq = Ladder(seq.prog, (1, 0), (0, 1), lambda x, y: (x[0] + y[0], x[1] + y[1]))

    def coeffs(self, k: int):
        """(A_k, B_k) with log W-hat_k = A_k anchor_0 + B_k anchor_1, k >= 0, by
        Cramer's rule on the anchor rows (P, Q) at k0 - 1 and k0.  Their
        determinant D is +-1, as each step [[s, 1], [1, 0]] has determinant -1,
        so 1/D = D.  Below k0 - 1 it raises DegenerateGrowth at the first index,
        walking down from k0 - 2, where log W-hat is <= 0."""
        (p0, q0), (p1, q1), (p, q) = (self._pq.w(j) for j in (self._k0 - 1, self._k0, k))
        d = p0 * q1 - p1 * q0
        a, b = d * (p * q1 - q * p1), d * (q * p0 - p * q0)
        if k < self._k0 - 1:
            self.coeffs(k + 1)      # the walk down passes k + 1 first
            if a * self._anchors[0] + b * self._anchors[1] <= 0:
                raise DegenerateGrowth(
                    f"downward extension of log W-hat reaches a non-positive value at k = {k}"
                )
        return a, b

    def log(self, k: int):
        a, b = self.coeffs(k)
        return a * self._anchors[0] + b * self._anchors[1]

    @property
    def anchors(self):
        return self._anchors
