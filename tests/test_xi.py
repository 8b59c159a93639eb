from fractions import Fraction

import mpmath
import pytest

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


def test_no_convergence_cap(bl12):
    with pytest.raises(NoConvergence):
        xi_value(bl12, 256, max_index=4)
