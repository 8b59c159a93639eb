"""The limit point (1, xi, xi^2) of the projective sequence [y_i], with exact
rational enclosures, properness verdicts, and norm-comparison diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .exactlin import DEFAULT_PRECISION, RatVec, det3, rat_dot, to_real
from .approx import Bundle, z_dot_y_identity
from .sturm import SturmianProgram


class NoConvergence(ValueError):
    pass


@dataclass
class XiValue:
    lo: Fraction
    hi: Fraction
    index: int              # last y index used
    precision_bits: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

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
    # generate enough letters: quotient n contributes ~log2(phi) bits; be generous
    need = 4 * precision_bits + 64
    m_prev = [b]
    m_cur = [b] * (s1_prime - 1) + [a]
    k = 1
    while len(m_cur) < need:
        m_prev, m_cur = m_cur, m_cur * prog.s(k + 1) + m_prev
        k += 1
    # stop once the error bound 1/(q_n q_{n-1}) is at most 2^-(bits+2); the
    # product can reach the bound only when its bit lengths sum past bits + 2
    bound = 2 ** (precision_bits + 2)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1   # value [0; ...]
    for n, u in enumerate(m_cur):
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
    content_max: int
    trace_ok: bool           # Tr(JN) != 0
    tr_JN: int

    @property
    def proper(self) -> bool:
        return self.delta_ok and self.content_ok and self.trace_ok


def properness_check(bundle: Bundle, i_max: int = 20,
                     prec: int = DEFAULT_PRECISION) -> PropernessReport:
    from .matseq import delta_estimate
    from .sturm import quantities

    seq, seed = bundle.seq, bundle.seed
    qs = quantities(bundle.prog, prec=prec)
    with mpmath.workprec(prec):
        threshold = qs.sigma / (1 + qs.sigma)
    # log||w_k|| grows like a Fibonacci-type sequence, so keep k_max modest
    k_max = bundle.prog.block_of(max(i_max, 5))[0] + 1
    k_max = min(k_max, 24)
    rep = delta_estimate(seq, k_max, prec)
    if rep.exact_zero:
        delta_ok, evidence = True, "unimodular seed: delta = 0 exactly"
    elif rep.bracket is not None and rep.bracket[1] < threshold:
        delta_ok = True
        evidence = f"certified bracket {rep.bracket} below sigma/(1+sigma) = {threshold}"
    else:
        delta_ok = bool(rep.delta_hat < threshold)
        evidence = f"empirical delta_hat = {rep.delta_hat} vs threshold {threshold} (uncertified)"
    contents = [bundle.ys.content(i) for i in range(-2, i_max + 1)]
    dN = abs(seed.det_N)
    content_ok = all(dN % c == 0 for c in contents)
    return PropernessReport(
        delta_ok=delta_ok,
        delta_evidence=evidence,
        content_ok=content_ok,
        content_max=max(contents),
        trace_ok=seed.tr_JN != 0,
        tr_JN=seed.tr_JN,
    )


# ---------------------------------------------------------------------------
# norm-comparison diagnostics (Euclidean norms)
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsTable:
    rows: list              # (i, dict family -> mpf ratio)
    families: tuple
    ratio_spread: dict      # family -> (min, max)
    exact_ok: bool          # the inner-product/det identity held exactly
    spread_bound: float

    @property
    def ok(self) -> bool:
        return self.exact_ok and all(
            mx / mn < self.spread_bound for mn, mx in self.ratio_spread.values())


def norm_diagnostics(bundle: Bundle, i_lo: int, i_hi: int, u=None,
                     prec: int = DEFAULT_PRECISION,
                     spread_bound: float = 1e3) -> DiagnosticsTable:
    """Ratios that the comparison estimates predict to be bounded above and
    below, sampled for i in [i_lo, i_hi]; u = (1, xi, xi^2) as mpfs.

    When u is omitted it is recomputed at a precision large enough for the
    cancellations at i_hi (||y_i ^ u|| decays like 1/||y_i||), and `prec` is
    raised accordingly.

    Families:
      wedge_u:   ||y_i ^ u|| ||y_i|| / |det y_i|
      growth:    ||y_{i+1}|| ||y_{psi(i)}|| / ||y_i||^2
      z_norm:    ||z_i|| / ||y_{psi(i)}||
      z_dot_y:   |<z_i, y_{i+1}>| / |det y_i|
      z_dot_u:   |<z_i, u>| ||y_{i+1}|| / |det y_i|
      quotient:  ||y_i ^ y_{i+1}|| / (|det y_{i+1}| ||y_i y_{i+1}^{-1}||)
    """
    ys, zs, prog = bundle.ys, bundle.zs, bundle.prog
    need = 3 * ys.at(i_hi + 2).sup_norm().bit_length() + 64
    prec = max(prec, need)
    if u is None:
        u = xi_value(bundle, prec).u_vector(prec)
    families = ("wedge_u", "growth", "z_norm", "z_dot_y", "z_dot_u", "quotient")
    rows = []
    exact_ok = True
    with mpmath.workprec(prec):
        u0, u1, u2 = (mpmath.mpf(x) if not isinstance(x, mpmath.mpf) else x for x in u)

        def norm3(a, b, c):
            return mpmath.sqrt(a * a + b * b + c * c)

        def vec_mpf(v):
            if isinstance(v, RatVec):
                den = mpmath.mpf(v.den)
                return (mpmath.mpf(v.num.x0) / den, mpmath.mpf(v.num.x1) / den,
                        mpmath.mpf(v.num.x2) / den)
            return (mpmath.mpf(v.x0), mpmath.mpf(v.x1), mpmath.mpf(v.x2))

        def wedge_mpf(x, y):
            return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                    x[0] * y[1] - x[1] * y[0])

        for i in range(i_lo, i_hi + 1):
            yi = ys.at(i)
            yi1 = ys.at(i + 1)
            yp = ys.at(prog.psi(i))
            zi = zs.at(i)
            dyi = abs(yi.det())
            fi = vec_mpf(yi)
            wu = wedge_mpf(fi, (u0, u1, u2))
            r = {}
            r["wedge_u"] = norm3(*wu) * norm3(*fi) / dyi
            r["growth"] = (yi1.eucl_norm(prec) * yp.eucl_norm(prec)
                           / yi.eucl_norm(prec) ** 2)
            r["z_norm"] = zi.eucl_norm(prec) / yp.eucl_norm(prec)
            r["z_dot_y"] = to_real(abs(rat_dot(zi, RatVec.from_sym(yi1))), prec) / dyi
            zf = vec_mpf(zi)
            r["z_dot_u"] = (abs(zf[0] * u0 + zf[1] * u1 + zf[2] * u2)
                            * yi1.eucl_norm(prec) / dyi)
            quot = yi.as_mat() @ yi1.as_mat().adj()   # y_i y_{i+1}^{-1} * det
            r["quotient"] = (to_real(yi.wedge(yi1).norm_sq(), prec) ** mpmath.mpf("0.5")
                             / (abs(yi1.det()) * mpmath.mpf(quot.sup_norm())
                                / abs(yi1.det())))
            rows.append((i, r))
            lhs, rhs = z_dot_y_identity(bundle, i)
            if lhs != rhs:
                exact_ok = False
        spread = {}
        for fam in families:
            vals = [r[fam] for _, r in rows]
            spread[fam] = (min(vals), max(vals))
    return DiagnosticsTable(rows=rows, families=families, ratio_spread=spread,
                            exact_ok=exact_ok, spread_bound=spread_bound)
