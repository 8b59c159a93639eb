"""The limit point (1, xi, xi^2) of the projective sequence [y_i], with exact
rational enclosures, a continued-fraction cross-check for two-letter seeds,
and properness verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    index: int              # last y index used
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


def xi_value(bundle: Bundle, precision_bits: int = DEFAULT_PRECISION,
             max_index: int = 2000) -> XiValue:
    """xi as the limit of the ratios y_{i,1} / y_{i,0}.

    The enclosure is certified relative to an observed-contraction hypothesis:
    once the successive ratio gaps d_i shrink by at least 4x at every step, the
    geometric tail bound gives |xi - r_{i+1}| <= (4/3) d_{i+1} < 2 d_{i+1}.
    """
    ys = bundle.ys
    target = Fraction(1, 2 ** precision_bits)
    prev_ratio = None
    prev_gap = None
    streak = 0
    for i in range(0, max_index + 1):
        v = ys.at(i)
        if v.x0 == 0:
            prev_ratio, prev_gap, streak = None, None, 0
            continue
        r = Fraction(v.x1, v.x0)
        if prev_ratio is not None:
            gap = abs(r - prev_ratio)
            if prev_gap is not None:
                if gap * 4 <= prev_gap:
                    streak += 1
                else:
                    streak = 0
            prev_gap = gap
            if streak >= 2 and gap * 4 <= target:
                return XiValue(lo=r - 2 * gap, hi=r + 2 * gap,
                               index=i, precision_bits=precision_bits)
        prev_ratio = r
    raise NoConvergence(
        f"ratio gaps did not contract to 2^-{precision_bits} within {max_index} terms")


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
