"""Acceptance gate: twelve numbered criteria, criterion 1 again on the proved
identity families, criterion 8 again at depth, criterion 11 again on three
proper roy seeds, and the sweep criterion, sixteen in all.

Each test prints a single `criterion N: PASS/FAIL` line before asserting, so a
plain `pytest -v -s` run doubles as the checklist.  Every criterion asserts a
statement the code proves, at its stated tolerance.  Criteria 3 and 11 assert
the proved forms of two claims whose literal statements exact integers refute;
each also pins the counterexample, so the refutation stays asserted.
"""
import math
import time
from fractions import Fraction

import mpmath
import pytest

from sturmlab import exponents as expo
from sturmlab import paramgeo
from sturmlab.approx import PROVED, contents_report, gray_fan, make_bundle, verify_identities
from sturmlab.matseq import delta_estimate, roy_family
from sturmlab.sturm import quantities, spectrum_endpoints
from sturmlab.xi import bl_xi_oracle, xi_value

from test_approx import WedgeZ, _fan_statements, _implied_instances


def report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def all_seeds(roy212, roy313, bl12, roy212_p2):
    return [("roy(2,1,2)", roy212), ("roy(3,1,3)", roy313),
            ("bl(1,2,1)", bl12), ("roy(2,1,2)/period-2", roy212_p2)]


def test_criterion_1_exact_identities(all_seeds):
    t0 = time.perf_counter()
    bad = []
    for name, bundle in all_seeds:
        rep = verify_identities(bundle, bundle.prog.t(14))
        if not rep.ok:
            bad.append((name, rep.failures[:2]))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    assert report(1, ok, f"4 seeds to t_14 in {elapsed:.1f}s"), (bad, elapsed)


def test_criterion_1_proved_families(all_seeds):
    """Beside criterion 1: every instance to t_14 of the nine families that
    `verify_identities` proves instead of checking, by the test-side formulas."""
    bad, names = [], set()
    for name, bundle in all_seeds:
        for family, idx, lhs, rhs in _implied_instances(bundle, bundle.prog.t(14)):
            names.add(family)
            if lhs != rhs:
                bad.append((name, family, idx))
    ok = not bad and names == set(PROVED)
    assert report("1 (proved families)", ok, f"{len(PROVED)} families, 4 seeds to t_14"), bad


def test_criterion_2_contents(all_seeds):
    bad = []
    for name, bundle in all_seeds:
        rep = contents_report(bundle, bundle.prog.t(14))
        if not (rep.y_divides_detN and rep.z_integral and rep.z_divides_bound):
            bad.append(name)
    assert report(2, not bad), bad


def test_criterion_3_delta_certification(roy212, bl12):
    # The proved bracket for roy(a,b,c) is [log a / log(2a(c+1)), log a / log(a(b+1))]
    # (the induction in `delta_estimate`'s docstring).  With |det w_k| = a^{f_k},
    # f_0 = f_1 = 1, f_{k+1} = s_{k+1} f_k + f_{k-1}, its two sides are the
    # integer inequalities (a(b+1))^{f_k} <= ||w_k|| and 2||w_k|| <= (2a(c+1))^{f_k},
    # checked exactly below.  The narrower interval [log2/log12, log2/log8] for
    # roy(2,1,2) is refuted in integers: ||w_k|| < |det w_k|^3, i.e.
    # delta_k > 1/3 = log2/log8, for every k <= 18 (delta_0 = log2/log4 = 1/2).
    seq = roy212.seq
    a, b, c = seq.seed.params
    rep = delta_estimate(seq, 18)
    lo, hi = rep.bracket
    with mpmath.workprec(128):
        ends_ok = (abs(lo - mpmath.log(2) / mpmath.log(12)) < 1e-30
                   and abs(hi - mpmath.log(2) / mpmath.log(4)) < 1e-30)
    in_bracket = all(lo <= rep.deltas[k] <= hi for k in range(19))
    f = [1, 1]
    for k in range(1, 18):
        f.append(seq.prog.s(k + 1) * f[k] + f[k - 1])
    exact_ok = all(abs(seq.det(k)) == a ** f[k]
                   and (a * (b + 1)) ** f[k] <= seq.norm(k)
                   and 2 * seq.norm(k) <= (2 * a * (c + 1)) ** f[k]
                   for k in range(19))
    refuted = all(seq.norm(k) < abs(seq.det(k)) ** 3 for k in range(19))
    inc_ok = rep.increments[18] < 1e-3
    bl_ok = delta_estimate(bl12.seq, 14).exact_zero
    ok = ends_ok and in_bracket and exact_ok and refuted and inc_ok and bl_ok
    report(3, ok, f"bracket={in_bracket} exact={exact_ok} delta>1/3={refuted} "
                  f"increments={inc_ok} bl_zero={bl_ok}")
    assert ends_ok, rep.bracket
    assert in_bracket, [float(rep.deltas[k]) for k in sorted(rep.deltas)]
    assert exact_ok and refuted
    assert inc_ok and bl_ok


def test_criterion_4_closed_forms(prog_ones):
    with mpmath.workprec(256):
        qs = quantities(prog_ones, prec=256)
        es = expo.closed_form(qs.sigma, 0, qs.tau, qs.sigma_prime, 256)
        g = (1 + mpmath.sqrt(5)) / 2
        pt_ok = (abs(es.omega2_hat.value - g * g) < 1e-10
                 and abs(es.lambda2_hat.value - 1 / g) < 1e-10)
        resid = mpmath.mpf(0)
        for t in range(1000):
            delta = qs.sigma / (1 + qs.sigma) * t / 1000
            e = expo.closed_form(qs.sigma, delta, qs.tau, qs.sigma_prime, 256)
            resid = max(resid,
                        abs(e.lambda2_hat.value - (1 - 1 / e.omega2_hat.value)),
                        abs(1 / e.psi1_low.value - 1 - e.omega2.value))
        grid_ok = resid < mpmath.mpf("1e-30")
    ok = pt_ok and grid_ok
    assert report(4, ok, f"max grid residual {mpmath.nstr(resid, 3)}"), resid


def test_criterion_5_spectrum_endpoints():
    sp = spectrum_endpoints()
    with mpmath.workprec(128):
        tol = mpmath.mpf("1e-10")
        vals_ok = (
            abs(sp.named["delta_1_1"].to_real(128) - (1 + mpmath.sqrt(5))) < tol
            and abs(sp.named["delta_2_2"].to_real(128) - (2 + 2 * mpmath.sqrt(2))) < tol
            and abs(sp.named["delta_3_3"].to_real(128) - (3 + mpmath.sqrt(13))) < tol)
    union_ok = (len(sp.intervals) == 3
                and sp.intervals[0][1] == sp.named["delta_1_1"]
                and sp.intervals[1][1] == sp.named["delta_2_2"]
                and sp.intervals[2][1] == sp.named["delta_3_3"]
                and sp.intervals[2][2] is None)
    assert report(5, vals_ok and union_ok)


@pytest.fixture(scope="module")
def P14(bl12):
    return paramgeo.predicted_system(bl12, (3, 14), prec=256)


def test_criterion_6_three_system_validity(bl12, P14):
    rep = paramgeo.validate_3system(P14, tol=1e-9)
    forced = paramgeo.predicted_system(bl12, (3, 14), delta=mpmath.mpf("0.5"),
                                       prec=256)
    frep = paramgeo.validate_3system(forced, tol=1e-9)
    ok = rep.valid and not frep.valid
    assert report(6, ok, f"valid={rep.valid} forced_half_invalid={not frep.valid}"), \
        (rep.failures[:3], rep.shape_failures[:3])


@pytest.fixture(scope="module")
def bl_breakpoint_samples(bl12, P14):
    cb = paramgeo.CandidateBuilder(bl12, prec=256)
    return [s for s in paramgeo.breakpoint_samples(cb, P14) if s.k >= 4]


def test_criterion_7_prediction_vs_reality(P14, bl_breakpoint_samples):
    def window_of(s):
        return "early" if s.k <= 8 else "late"
    rep = paramgeo.compare(P14, bl_breakpoint_samples, window_of=window_of)
    ng = rep.non_growing("early", "late")
    ok = ng["item1"] and ng["item2"] and math.isfinite(rep.item3_C)
    assert report(
        7, ok,
        f"|L1-P1| early {rep.item1.get('early', 0):.3f} late "
        f"{rep.item1.get('late', 0):.3f}; C={rep.item3_C:.3f}"), (rep.item1, rep.item2)


def test_criterion_8_mahler_duality(bl12):
    cb = paramgeo.CandidateBuilder(bl12, prec=256)
    rep = paramgeo.duality_check(cb, [float(q) for q in range(0, 13)])
    finite = all(math.isfinite(rep.per_j[j]) for j in (1, 2, 3))
    ok = finite and rep.non_growing
    assert report(8, ok, "max dev " + ", ".join(
        f"j={j}: {rep.per_j[j]:.3f}" for j in (1, 2, 3))), rep.per_j_windows


def test_criterion_8_deep_mahler_duality(bl12, roy212):
    """Criterion 8 to q = 30 on two seeds, with a proved bound.  The primal
    body K = {max(|x|, e^q |x.u|) <= 1} has the polar K° = conv(B, +-e^q u),
    and for q >= 0 the dual body K* satisfies K* ⊂ 2 K° ⊂ 2 |u| K*, so
    Mahler's 1 <= lambda_j(K) lambda_{4-j}(K°) <= 3! gives
    -log 2 <= L_j + L*_{4-j} <= log(6 |u|)."""
    devs = {}
    for name, bundle in (("bl(1,2,1)", bl12), ("roy(2,1,2)", roy212)):
        cb = paramgeo.CandidateBuilder(bundle, prec=256)
        rep = paramgeo.duality_check(cb, [float(q) for q in range(0, 31, 2)])
        u = cb.u(256)
        bound = math.log(6 * float(mpmath.sqrt(sum(c * c for c in u))))
        dev = max(rep.per_j.values())
        assert math.isfinite(dev) and rep.non_growing, (name, rep.per_j_windows)
        devs[name] = (dev, bound)
    ok = all(dev <= bound for dev, bound in devs.values())
    assert report("8-deep", ok, "; ".join(
        f"{name}: max dev {dev:.3f} <= {bound:.3f}" for name, (dev, bound) in devs.items())), devs


def test_criterion_9_empirical_exponents(prog_ones, bl_breakpoint_samples):
    t0 = time.perf_counter()
    emp = expo.empirical(bl_breakpoint_samples)
    with mpmath.workprec(256):
        qs = quantities(prog_ones, prec=256)
        es = expo.closed_form(qs.sigma, 0, qs.tau, qs.sigma_prime, 256)
    devs = {}
    for name in ("psi1_low", "psi1_up", "psi2_up", "psi3_low", "psi3_up"):
        devs[name] = abs(float(getattr(emp, name).est)
                         - float(getattr(es, name).value))
    elapsed = time.perf_counter() - t0
    ok = all(d < 0.02 for d in devs.values()) and elapsed < 600
    assert report(9, ok, "max dev %.4f in %.0fs" % (max(devs.values()), elapsed)), devs


def test_criterion_10_xi_cross_check(bl12):
    bits = 256
    xv = xi_value(bl12, bits)
    orc = bl_xi_oracle(1, 2, 1, bl12.prog, bits)
    with mpmath.workprec(bits + 32):
        gap = abs(xv.mpf() - orc.mpf())
        ok = gap < mpmath.mpf("1e-50")
    assert report(10, ok, f"gap {mpmath.nstr(gap, 3)}")


def test_criterion_11_gray_areas(roy212):
    # The wedge identity x_m ^ x_{m+1} = +-d_i z_{i+1} gives
    # c_m c_{m+1} | content(d_i z_{i+1}) = |d_i| content(z_{i+1}), and
    # content(z_{i+1}) is an integer dividing the content bound, so the pair
    # contents are at most |d_i| times a constant independent of i.  The literal
    # c_m c_{m+1} | d_i is refuted at i = 3: contents [1, 2, 1, 1, 16, 1], d_3 = 8.
    bound = contents_report(roy212, 13).content_bound
    fans = {i: gray_fan(roy212, i) for i in range(3, 13)}
    zs = WedgeZ(roy212)
    bad = []
    for i, fan in fans.items():
        # content(z_{i+1}) = content(y_i ^ y_{i+1}) / |d_{i+2}|, the wedge
        # reference's num(i + 1) over den(i + 1)
        const = Fraction(zs.num(i + 1).content(), abs(zs.den(i + 1)))
        proved = all(_fan_statements(roy212, fan).values())
        if not (proved and const.denominator == 1 and bound % const.numerator == 0):
            bad.append((i, const))
    fan3 = fans[3]
    refuted = (fan3.contents == [1, 2, 1, 1, 16, 1] and roy212.seq.det(3) == 8
               and not fan3.content_pairs_ok)
    ok = not bad and refuted
    report(11, ok, f"proved for i=3..12: {not bad}; literal refuted at i=3: {refuted}")
    assert not bad, bad
    assert refuted, (fan3.contents, roy212.seq.det(3), fan3.content_pairs_ok)


def test_criterion_11_literal_on_proper_seeds(prog_ones):
    # The literal c_m c_{m+1} | d_i, refuted on roy(2,1,2) at i = 3, holds for
    # i = 3..12 on the seeds roy(2,3,4), roy(2,7,8) and roy(4,15,16).  It is
    # refuted on roy(2,3,4) at i = 2: contents [1, 1, 1, 8, 1], d_2 = 4.
    bad = []
    for abc in ((2, 3, 4), (2, 7, 8), (4, 15, 16)):
        bundle = make_bundle(roy_family(*abc), prog_ones)
        bad += [(abc, i) for i in range(3, 13) if not gray_fan(bundle, i).content_pairs_ok]
    roy234 = make_bundle(roy_family(2, 3, 4), prog_ones)
    fan2 = gray_fan(roy234, 2)
    refuted = (fan2.contents == [1, 1, 1, 8, 1] and roy234.seq.det(2) == 4
               and not fan2.content_pairs_ok)
    ok = not bad and refuted
    report("11-proper", ok,
           f"literal for i=3..12: {not bad}; refuted on roy(2,3,4) at i=2: {refuted}")
    assert not bad, bad
    assert refuted, (fan2.contents, roy234.seq.det(2), fan2.content_pairs_ok)


def test_criterion_12_oracle_agreement(all_seeds):
    failures = []
    for name, bundle in all_seeds:
        cb = paramgeo.CandidateBuilder(bundle, prec=256)
        bound = contents_report(bundle, bundle.prog.t(6)).content_bound
        tol = max(math.log(bound), 1e-9)
        try:
            P = paramgeo.predicted_system(bundle, (3, 8), prec=256)
        except Exception:
            P = None
        picked = 0
        q = 0.25
        while picked < 20 and q < 12.0:
            if P is not None and P.in_gray(q, margin=0.05):
                q += 0.45
                continue
            cand = paramgeo.minima_candidates(cb, mpmath.mpf(q))
            brute = paramgeo.minima_bruteforce(cb, mpmath.mpf(q))
            for j in range(3):
                d = abs(float(cand.L[j] - brute.L[j]))
                if d > tol:
                    failures.append((name, q, j, d, tol))
            picked += 1
            q += 0.45
        assert picked >= 20, (name, picked)
    assert report(12, not failures), failures[:5]


def test_criterion_sweep_coverage(prog_ones):
    with mpmath.workprec(128):
        qs = quantities(prog_ones, prec=128)
        rep = expo.omega2_sweep(qs.sigma, prec=128)
        gap = float(rep.delta_cover_gap)
    ok = gap < 0.15
    assert report("sweep", ok, f"max delta-cover gap {gap:.4f}")
