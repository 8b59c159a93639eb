"""The limit point (1, xi, xi^2) of the projective sequence [y_i], with exact
rational enclosures, a continued-fraction cross-check for two-letter seeds,
and properness verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Optional

import mpmath

from .exactlin import DEFAULT_PRECISION, to_real
from .approx import Bundle
from .matseq import resolve_delta
from .sturm import SturmianProgram, characteristic_word, quantities


class NoConvergence(ValueError):
    pass


@dataclass
class XiValue:
    lo: Fraction
    hi: Fraction
    index: int              # k of the w_k, or the quotient count of the oracle
    precision_bits: int

    def mpf(self, prec: Optional[int] = None):
        prec = prec or self.precision_bits + 16
        with mpmath.workprec(prec):
            return (to_real(self.lo, prec) + to_real(self.hi, prec)) / 2

    def u_vector(self, prec: Optional[int] = None):
        """(1, xi, xi^2) at working precision."""
        prec = prec or self.precision_bits + 16
        with mpmath.workprec(prec):
            x = self.mpf(prec)
            return (mpmath.mpf(1), x, x * x)


def xi_value(bundle: Bundle, precision_bits: int = DEFAULT_PRECISION) -> XiValue:
    """xi enclosed by the column ratios c/a and d/b of w_k = [[a, b], [c, d]]
    at the first k with a, b > 0 and |det w_k| 2^precision_bits <= a b.

    (i) For nonnegative w_0, w_1 each w_k^{s-1} w_{k-1} is nonnegative, so
    the columns of w_{k+1} = w_k (w_k^{s-1} w_{k-1}) combine those of w_k
    with nonnegative weights: the cones nest.  On the cone of w_k the ratio
    of row 1 to row 0 runs between c/a and d/b, a width |det w_k| / (a b).
    (ii) For i = t_m + l, m >= k, y_i = L_i N_m, and the columns of
    L_i = w_m (w_m^l w_{m-1}) lie in the cone of w_m, inside that of w_k.
    [y_i] tends to [1 : xi : xi^2], so on a subsequence with one parity of m
    L_i / |y_i| tends to c (1, xi)^T (1, xi) N_m^{-1}, c != 0, whose nonzero
    columns are multiples of (1, xi) and lie in the closed cone.

    A cone still too wide when ||w_k|| passes 2^B raises NoConvergence, with
    B = precision_bits + 4 L and L the bit length of ||w_3||.  On roy and bl
    seeds w_2, w_3 > 0 and, for k >= 4, w_k = w_2 M w_j with M >= 0 and
    j in {2, 3} (rows nest two steps apart), so its entries lie within a
    factor K = ||w_2|| ||w_3|| < 2^{2L} of each other.  |det w_k| is 1 on bl
    seeds and at most ||w_k|| on roy seeds (the bottom-right entry is
    supermultiplicative and >= |det| on w_0, w_1), so the width is at most
    K^2 / ||w_k|| <= 2^-precision_bits at the budget; bl seeds need only
    a b >= 2^precision_bits.  Negative entries and pairs of permutation
    matrices are refused; on the others S(w_k) - 2, S the entry sum, is
    unbounded, as S(XY) >= S(X) + S(Y) - 2 and S = 2 only on permutations."""
    seq, w0, w1 = bundle.seq, bundle.seed.w0, bundle.seed.w1
    entries = (w0.a, w0.b, w0.c, w0.d, w1.a, w1.b, w1.c, w1.d)
    if min(entries) < 0:
        raise NoConvergence(f"w0 = {w0} or w1 = {w1} has a negative entry: cones need not nest")
    if sum(entries) == 4:
        raise NoConvergence(f"w0 = {w0} and w1 = {w1} are permutation matrices: cones never narrow")
    budget = precision_bits + 4 * seq.norm(3).bit_length()
    for k in count():
        w = seq.w(k)
        if w.a > 0 and w.b > 0 and abs(seq.det(k)) << precision_bits <= w.a * w.b:
            lo, hi = sorted((Fraction(w.c, w.a), Fraction(w.d, w.b)))
            return XiValue(lo=lo, hi=hi, index=k, precision_bits=precision_bits)
        if seq.norm(k).bit_length() > budget:
            raise NoConvergence(f"cones of w_k wider than 2^-{precision_bits} at ||w_{k}|| >= 2^{budget}")


# ---------------------------------------------------------------------------
# continued-fraction oracle for the two-letter (unimodular) seeds
# ---------------------------------------------------------------------------

def bl_xi_oracle(a: int, b: int, s1_prime: int, prog: SturmianProgram,
                 precision_bits: int = DEFAULT_PRECISION) -> XiValue:
    """Independent value of xi for a two-letter seed: the continued fraction
    [0; u_1, u_2, ...] whose partial quotients read off the limit word of
    m_0 = b, m_1 = b^{s1'-1} a, m_{k+1} = m_k^{s'_{k+1}} m_{k-1} (letters carry
    the numeric values a and b)."""
    # q_n >= phi^(n-1), so the loop below stops long before this many quotients
    quotients = characteristic_word(s1_prime, prog, [a], [b], 4 * precision_bits + 64)
    # stop once the error bound 1/(q_n q_{n-1}) is at most 2^-(bits+2); the
    # product can reach the bound only when its bit lengths sum past bits + 2
    bound = 2 ** (precision_bits + 2)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1   # value [0; ...]
    for n, u in enumerate(quotients):
        p_prev, p_cur = p_cur, u * p_cur + p_prev
        q_prev, q_cur = q_cur, u * q_cur + q_prev
        if (n >= 2 and q_cur.bit_length() + q_prev.bit_length() > precision_bits + 2
                and q_cur * q_prev >= bound):
            err = Fraction(1, q_cur * q_prev)
            r = Fraction(p_cur, q_cur)
            return XiValue(lo=r - err, hi=r + err, index=n,
                           precision_bits=precision_bits)
    raise NoConvergence("continued-fraction oracle ran out of quotients")


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------

@dataclass
class PropernessReport:
    delta_ok: bool           # determinant exponent certified < sigma/(1+sigma)
    delta_evidence: str
    content_ok: bool         # content(y_i) stays bounded (divides det N)
    trace_ok: bool           # Tr(JN) != 0
    tr_JN: int

    @property
    def proper(self) -> bool:
        return self.delta_ok and self.content_ok and self.trace_ok


# the contents of y_{-2}, ..., y_{CONTENT_I_MAX} are checked to divide det N
CONTENT_I_MAX = 20


def properness_check(bundle: Bundle, prec: int = DEFAULT_PRECISION) -> PropernessReport:
    seed = bundle.seed
    qs = quantities(bundle.prog, prec=prec)
    with mpmath.workprec(prec):
        threshold = qs.sigma / (1 + qs.sigma)
    choice = resolve_delta(bundle.seq, prec)
    rep = choice.report
    if rep is None:
        delta_ok, evidence = True, "unimodular seed: delta = 0 exactly"
    elif rep.bracket is not None and rep.bracket[1] < threshold:
        delta_ok = True
        evidence = f"certified bracket {rep.bracket} below sigma/(1+sigma) = {threshold}"
    else:
        delta_ok = bool(choice.value < threshold)
        evidence = f"empirical delta_hat = {choice.value} vs threshold {threshold} (uncertified)"
    contents = [bundle.ys.content(i) for i in range(-2, CONTENT_I_MAX + 1)]
    dN = abs(seed.det_N)
    content_ok = all(dN % c == 0 for c in contents)
    return PropernessReport(
        delta_ok=delta_ok,
        delta_evidence=evidence,
        content_ok=content_ok,
        trace_ok=seed.tr_JN != 0,
        tr_JN=seed.tr_JN,
    )
