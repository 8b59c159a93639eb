import math

import mpmath
import pytest

from sturmlab import exponents as ex
from sturmlab.sturm import SturmianProgram, h_of_sigma, quantities


@pytest.fixture(scope="module")
def golden():
    with mpmath.workprec(256):
        return quantities(SturmianProgram.all_ones(), prec=256)


def _gamma():
    with mpmath.workprec(256):
        return (1 + mpmath.sqrt(5)) / 2


def test_closed_form_extremal_point(golden):
    # sigma = 1/gamma, delta = 0: the classical extremal-number values
    with mpmath.workprec(256):
        es = ex.closed_form(golden.sigma, 0, golden.tau, golden.sigma_prime, 256)
        g = _gamma()
        tol = mpmath.mpf("1e-10")
        assert abs(es.omega2_hat.value - g * g) < tol
        assert abs(es.lambda2_hat.value - 1 / g) < tol
        assert abs(es.omega2.value - (2 + mpmath.sqrt(5))) < tol
        assert abs(es.lambda2.value - 1) < tol
        assert abs(es.psi1_low.value - mpmath.mpf("0.190983005625")) < 1e-10
        assert abs(es.psi1_up.value - mpmath.mpf("0.27639320225")) < 1e-10
        assert abs(es.psi2_low.value - mpmath.mpf("0.27639320225")) < 1e-10
        assert abs(es.psi2_up.value - mpmath.mpf("0.38196601125")) < 1e-10
        assert abs(es.psi3_low.value - mpmath.mpf("0.38196601125")) < 1e-10
        assert abs(es.psi3_up.value - mpmath.mpf("0.5")) < 1e-10


def test_symbolic_identities_on_grid(golden):
    # lambda2_hat = 1 - 1/omega2_hat, and the parametric/standard relations
    # psi1_low = 1/(omega2 + 1), psi1_up = 1/(omega2_hat + 1),
    # psi3_low = lambda2_hat/(lambda2_hat + 1), psi3_up = lambda2/(lambda2 + 1)
    # on both ends (psi3_up and lambda2 are intervals above h(sigma))
    with mpmath.workprec(256):
        tol = mpmath.mpf("1e-30")
        for t in range(0, 1000, 7):
            delta = golden.sigma / (1 + golden.sigma) * t / 1000
            es = ex.closed_form(golden.sigma, delta, golden.tau,
                                golden.sigma_prime, 256)
            assert abs(es.lambda2_hat.value - (1 - 1 / es.omega2_hat.value)) < tol
            for end in ("lo", "hi"):
                v = {name: getattr(value, end) for name, value in es.table()}
                assert abs(v["psi1_low"] - 1 / (v["omega2"] + 1)) < tol
                assert abs(v["psi1_up"] - 1 / (v["omega2_hat"] + 1)) < tol
                assert abs(v["psi3_low"] - v["lambda2_hat"] / (v["lambda2_hat"] + 1)) < tol
                assert abs(v["psi3_up"] - v["lambda2"] / (v["lambda2"] + 1)) < tol


def test_improper_delta_rejected(golden):
    thr = golden.sigma / (1 + golden.sigma)
    with pytest.raises(ex.ImproperDelta):
        ex.closed_form(golden.sigma, thr, golden.tau, golden.sigma_prime)
    with pytest.raises(ex.ImproperDelta):
        ex.closed_form(golden.sigma, 0.9, golden.tau, golden.sigma_prime)


def test_lambda2_interval_above_h(golden):
    # below h(sigma) the lower value is exact; above it, an interval opens up
    with mpmath.workprec(128):
        h = h_of_sigma(golden.sigma, 128)
        below = ex.closed_form(golden.sigma, h / 2, golden.tau, golden.sigma_prime)
        assert isinstance(below.lambda2, ex.Exact)
        above = ex.closed_form(golden.sigma, mpmath.mpf(1) / 3, golden.tau,
                               golden.sigma_prime)
        assert isinstance(above.lambda2, ex.Interval)
        assert abs(above.lambda2.lo - mpmath.mpf(2) / 3) < 1e-10
        assert abs(above.lambda2.hi - mpmath.mpf("0.778391")) < 1e-5
        assert isinstance(above.psi3_up, ex.Interval)


def test_jarnik_residual(golden):
    with mpmath.workprec(256):
        for delta in (mpmath.mpf(0), mpmath.mpf("0.15"), mpmath.mpf("0.3")):
            es = ex.closed_form(golden.sigma, delta, golden.tau,
                                golden.sigma_prime, 256)
            a, b = es.psi3_low.lo, es.psi1_up.lo
            # 2 psi3_low + 2 psi1_up - 3 psi3_low psi1_up - 1 is 0 on the Jarnik locus
            assert abs(2 * a + 2 * b - 3 * a * b - 1) < mpmath.mpf("1e-60")


def test_psi2_low_switches_at_crossover(golden):
    # on the Fibonacci program the lower bound of psi2_low falls below theta
    # at delta ~ 0.26236: below it the exponent is theta, above it an interval
    with mpmath.workprec(256):
        below = ex.closed_form(golden.sigma, mpmath.mpf("0.25"), golden.tau,
                               golden.sigma_prime, 256).psi2_low
        above = ex.closed_form(golden.sigma, mpmath.mpf("0.27"), golden.tau,
                               golden.sigma_prime, 256).psi2_low
        assert isinstance(below, ex.Exact)
        assert isinstance(above, ex.Interval) and above.lo < above.hi


def test_empirical_requires_kinds():
    from sturmlab.paramgeo import MinimaSample
    mk = lambda kind, k: MinimaSample(q=mpmath.mpf(5), L=(1, 2, 3),
                                      Lstar=None, method="candidates",
                                      points=[], kind=kind, k=k)
    with pytest.raises(ex.BadWindow):
        ex.empirical([mk("q_t", 4), mk("d", 4)])
    full = [mk(kind, 4) for kind in ex.REQUIRED_KINDS] + \
        [mk("a_t", 4), mk("b_t", 4), mk("c_t", 4)]
    with pytest.raises(ex.LowConfidence):
        ex.empirical(full)


def test_empirical_close_to_closed_form(bl12, golden):
    from sturmlab import paramgeo
    P = paramgeo.predicted_system(bl12, (6, 11))
    samples = paramgeo.breakpoint_samples(paramgeo.CandidateBuilder(bl12, prec=256), P)
    emp = ex.empirical(samples)
    es = ex.closed_form(golden.sigma, 0, golden.tau, golden.sigma_prime)
    for name in ("psi1_low", "psi1_up", "psi2_up", "psi3_low", "psi3_up"):
        e = getattr(emp, name).est
        v = getattr(es, name).value
        assert abs(float(e) - float(v)) < 0.02, name
    assert abs(float(emp.notes["psi3_low_jarnik"]) -
               float(es.psi3_low.value)) < 0.02


def test_empirical_close_to_closed_form_period_2(prog_twos):
    """The paper's Sturmian generalisation, in the style of criterion 9: on
    period-2 bl(1,2) every empirical psi from the breakpoint samples over
    k 4:8 lies within 0.02 of its closed form."""
    from sturmlab import paramgeo
    from sturmlab.approx import make_bundle
    from sturmlab.matseq import bl_family, resolve_delta
    bundle = make_bundle(bl_family(1, 2), prog_twos)
    P = paramgeo.predicted_system(bundle, (4, 8))
    emp = ex.empirical(paramgeo.breakpoint_samples(
        paramgeo.CandidateBuilder(bundle, prec=256), P))
    with mpmath.workprec(256):
        qs = quantities(prog_twos, prec=256)
        es = ex.closed_form(qs.sigma, resolve_delta(bundle.seq, 256).value,
                            qs.tau, qs.sigma_prime, 256)
    for name in ("psi1_low", "psi1_up", "psi2_low", "psi2_up", "psi3_low", "psi3_up"):
        dev = abs(float(getattr(emp, name).est) - float(getattr(es, name).value))
        assert dev < 0.02, (name, dev)


def test_sweep_coverage(golden):
    rep = ex.omega2_sweep(golden.sigma)
    assert len(rep.rows) == 45                     # 0 < l < k <= 10
    assert float(rep.delta_cover_gap) < 0.15
    assert math.isfinite(float(rep.omega2_cover_gap))
    lo, hi = rep.omega2_range
    with mpmath.workprec(128):
        assert abs(lo - 2 / golden.sigma) < 1e-30
        assert abs(hi - (1 + 2 / golden.sigma)) < 1e-30
    # each row's bracket is ordered and the omega2 interval is decreasing in delta
    for r in rep.rows:
        assert r.bracket[0] <= r.bracket[1]
        assert r.omega2[0] <= r.omega2[1]
