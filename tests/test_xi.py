from fractions import Fraction

import mpmath
import pytest

from sturmlab.approx import make_bundle
from sturmlab.exactlin import IntMat2
from sturmlab.matseq import MatrixSeed, bl_family, roy_family, solve_admissibility
from sturmlab.sturm import SturmianProgram
from sturmlab.xi import (
    NoConvergence, bl_xi_oracle, properness_check, xi_value,
)


def test_enclosure_is_tight_and_nested(bl12):
    lo_bits, hi_bits = 64, 160
    a = xi_value(bl12, lo_bits)
    b = xi_value(bl12, hi_bits)
    assert a.lo < a.hi and b.lo < b.hi
    assert a.hi - a.lo <= Fraction(1, 2 ** lo_bits)
    assert b.hi - b.lo <= Fraction(1, 2 ** hi_bits)
    # higher precision stays inside the coarse interval
    assert a.lo <= b.lo and b.hi <= a.hi


def test_xi_values_positive(bl12, roy212):
    # the two-letter seed produces a [0; ...] continued fraction in (0, 1);
    # the roy triples land elsewhere but stay positive irrational-looking
    xv = xi_value(bl12, 96)
    assert 0 < xv.lo and xv.hi < 1
    rv = xi_value(roy212, 96)
    assert rv.lo > 1
    assert abs(float(rv.mpf()) - 2.874396040292625) < 1e-12


def test_u_vector(bl12):
    xv = xi_value(bl12, 128)
    u = xv.u_vector()
    assert u[0] == 1
    with mpmath.workprec(160):
        assert abs(u[2] - u[1] * u[1]) < mpmath.mpf(2) ** -100


def test_cf_oracle_agreement(bl12):
    bits = 200
    xv = xi_value(bl12, bits)
    orc = bl_xi_oracle(1, 2, 1, bl12.prog, bits)
    # the two enclosures overlap
    assert max(xv.lo, orc.lo) <= min(xv.hi, orc.hi)
    with mpmath.workprec(bits + 32):
        assert abs(xv.mpf() - orc.mpf()) < mpmath.mpf(2) ** -(bits - 4)


def test_cf_oracle_respects_s1_prime(prog_ones):
    from sturmlab.approx import make_bundle
    from sturmlab.matseq import bl_family
    bundle = make_bundle(bl_family(1, 2, s1_prime=2), prog_ones)
    xv = xi_value(bundle, 128)
    orc = bl_xi_oracle(1, 2, 2, prog_ones, 128)
    assert max(xv.lo, orc.lo) <= min(xv.hi, orc.hi)
    # and differs from the s1' = 1 value
    other = bl_xi_oracle(1, 2, 1, prog_ones, 128)
    assert abs(float(orc.mpf() - other.mpf())) > 1e-4


def test_properness_bl(bl12):
    rep = properness_check(bl12)
    assert rep.proper
    assert rep.delta_ok and rep.content_ok and rep.trace_ok
    assert "exactly" in rep.delta_evidence


def test_properness_roy212(roy212):
    # the certified bracket [log2/log12, log2/log4] straddles the threshold
    # sigma/(1+sigma) = 2 - gamma ~ 0.382 and the measured delta ~ 0.394
    # exceeds it, so properness cannot be affirmed
    rep = properness_check(roy212)
    assert rep.trace_ok and rep.content_ok
    assert not rep.delta_ok
    assert not rep.proper


def test_no_convergence_names_why():
    # a negative entry, two permutation matrices, and diagonal letters whose
    # cones stay the whole quadrant
    prog, one = SturmianProgram.all_ones(), IntMat2.identity()
    b, a = IntMat2(2, 1, 1, 0), IntMat2(-1, 1, 1, 0)
    cases = [(b, a, solve_admissibility(b, a), "negative entry"),
             (one, IntMat2(0, 1, 1, 0), one, "permutation matrices"),
             (IntMat2(2, 0, 0, 1), IntMat2(1, 0, 0, 2), one, r"wider than 2\^-64")]
    for w0, w1, N, why in cases:
        bundle = make_bundle(MatrixSeed(w0, w1, N, family="custom", params=()), prog)
        with pytest.raises(NoConvergence, match=why):
            xi_value(bundle, 64)


def _ratio_gap_enclosure(bundle, bits, max_index=2000):
    """Reference: the earlier enclosure from the ratios r_i = y_{i,1} / y_{i,0},
    taken as [r - 2 gap, r + 2 gap] once the gaps between successive ratios
    have contracted 4x twice in a row and gap <= 2^-bits / 4."""
    target = Fraction(1, 2 ** bits)
    prev_ratio = prev_gap = None
    streak = 0
    for i in range(max_index + 1):
        v = bundle.ys.at(i)
        if v.x0 == 0:
            prev_ratio, prev_gap, streak = None, None, 0
            continue
        r = Fraction(v.x1, v.x0)
        if prev_ratio is not None:
            gap = abs(r - prev_ratio)
            if prev_gap is not None:
                streak = streak + 1 if gap * 4 <= prev_gap else 0
            prev_gap = gap
            if streak >= 2 and gap * 4 <= target:
                return r - 2 * gap, r + 2 * gap
        prev_ratio = r
    raise AssertionError("reference enclosure did not contract")


SEEDS = {"bl(1,2)": lambda: bl_family(1, 2), "bl(2,1)": lambda: bl_family(2, 1),
         "bl(1,2;2)": lambda: bl_family(1, 2, s1_prime=2),
         "roy(2,1,2)": lambda: roy_family(2, 1, 2), "roy(2,7,8)": lambda: roy_family(2, 7, 8)}


@pytest.mark.parametrize("period", [[1], [2], [1, 2]], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_cone_enclosure(seed, period):
    bundle = make_bundle(SEEDS[seed](), SturmianProgram([-1, 1], period))
    outer = None
    for bits in (64, 256, 2439, 6700):
        xv = xi_value(bundle, bits)
        assert 0 < xv.hi - xv.lo <= Fraction(1, 2 ** bits)
        if outer is not None:
            assert outer.lo <= xv.lo and xv.hi <= outer.hi
        outer = xv
        lo, hi = _ratio_gap_enclosure(bundle, bits)
        assert max(lo, xv.lo) <= min(hi, xv.hi)
        if bundle.seed.family == "bl":
            orc = bl_xi_oracle(*bundle.seed.params, bundle.prog, bits)
            assert max(orc.lo, xv.lo) <= min(orc.hi, xv.hi)
