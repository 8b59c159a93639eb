import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmlab import paramgeo
from sturmlab.approx import make_bundle
from sturmlab.exactlin import SymVec, det3
from sturmlab.exponents import ImproperDelta, closed_form
from sturmlab.kernels import TooLarge
from sturmlab.matseq import bl_family, roy_family
from sturmlab.sturm import SturmianProgram, quantities
from sturmlab.xi import properness_check
from sturmlab.paramgeo import (
    CandidateBuilder, LinExpr, breakpoint_samples, compare, csv_rows,
    duality_check, minima_bruteforce, minima_candidates, predicted_system,
    svg_plot, validate_3system,
)

from make_bruteforce import OUT as BRUTEFORCE_RECORDS, builder as golden_builder
from test_approx import WedgeZ


def two_log_traj(x, u, q, side):
    """L_x(q) (side PRIMAL) or L*_x(q) (side DUAL) by its definition, the max
    of both logarithms, at the current mpmath precision; q an mpf."""
    fx0, fx1, fx2 = mpmath.mpf(x.x0), mpmath.mpf(x.x1), mpmath.mpf(x.x2)
    ln = mpmath.log(mpmath.sqrt(fx0 ** 2 + fx1 ** 2 + fx2 ** 2))
    if side == paramgeo.PRIMAL:
        return max(ln, mpmath.log(abs(fx0 * u[0] + fx1 * u[1] + fx2 * u[2])) + q)
    w0 = fx1 * u[2] - fx2 * u[1]
    w1 = fx2 * u[0] - fx0 * u[2]
    w2 = fx0 * u[1] - fx1 * u[0]
    return max(mpmath.log(mpmath.sqrt(w0 * w0 + w1 * w1 + w2 * w2)), ln - q)


def traj_eval(x, u, q, prec: int = 256):
    """(L_x(q), L*_x(q)) of a nonzero integer point at `prec` bits."""
    with mpmath.workprec(prec):
        qm = q if isinstance(q, mpmath.mpf) else mpmath.mpf(q)
        return tuple(two_log_traj(x, u, qm, side) for side in (paramgeo.PRIMAL, paramgeo.DUAL))


def sum_rule_exact(P, k: int) -> bool:
    """P1+P2+P3 = q at q = q_{t_k}, symbolically in the anchor basis with
    delta kept as a symbol."""
    d = P.data(P.prog.t(k))
    # P components at q_{t_k}: hatL_{t_{k+1}} = logZ_{t_{k+1}};
    # -hatL*_{t_k} = -logEstar; hatL_{t_k} = logZ_{t_k} (kink point)
    total = P.data(P.prog.t(k + 1)).logZ + d.logEstar.scale(-1) + d.logZ
    return total == d.q


def key_values_exact(P, i: int) -> bool:
    """hatL_i(c_i) = log Z-hat_{psi_inv(i)} and -hatL*_i(q_i) = (1-delta) log Y-hat_i,
    symbolically."""
    d = P.data(i)
    m = P.prog.t_index_of(i + 1)
    j = P.prog.t(m + 1) if m is not None and m >= 1 else i + 1     # psi_inv(i)
    ok = True
    if j <= P.prog.t(P.k_hi):       # P.data covers t_{k_lo} - 1 .. t_{k_hi}
        # c_i > q_i so hatL_i(c_i) = logE_i + c_i; compare with logZ_j
        ok &= (d.logE + d.c) == P.data(j).logZ
    ok &= d.logEstar.scale(-1) == d.logY.mul_delta_poly({0: 1, 1: -1})
    return ok


@pytest.fixture(scope="module")
def P_bl(bl12):
    return predicted_system(bl12, (3, 10))


@pytest.fixture(scope="module")
def cb_bl(bl12):
    return CandidateBuilder(bl12, prec=256)


@pytest.fixture(scope="module")
def cb_roy(roy212):
    return CandidateBuilder(roy212, prec=256)


@pytest.fixture(scope="module")
def cb_roy278(prog_ones):
    return CandidateBuilder(make_bundle(roy_family(2, 7, 8), prog_ones), prec=256)


@pytest.fixture(scope="module")
def cb_bl_p2(prog_twos):
    return CandidateBuilder(make_bundle(bl_family(1, 2), prog_twos), prec=256)


# --- symbolic layer ----------------------------------------------------------

def test_linexpr_algebra():
    x = LinExpr.anchor(0, 2) + LinExpr.anchor(1, 3)
    y = x.mul_delta_poly({0: 1, 1: -1})      # (1 - delta) x
    assert y.eval(1, 1, 0) == 5
    assert y.eval(1, 1, 1) == 0
    from fractions import Fraction
    assert x.scale(Fraction(1, 2)).eval(2, 4, 0) == 8
    assert (x - x) == LinExpr()


def test_sum_rule_symbolic(P_bl):
    for k in range(P_bl.k_lo, P_bl.k_hi - 1):
        assert sum_rule_exact(P_bl, k)


def test_key_values_symbolic(P_bl):
    for i in P_bl.window_index_range():
        assert key_values_exact(P_bl, i)


def test_delta_resolution(P_bl, bl12, roy212):
    assert P_bl.delta == 0
    assert "unimodular" in P_bl.delta_source
    assert properness_check(bl12).delta_ok is True
    R = predicted_system(roy212, (3, 7))
    assert R.delta_source == "empirical delta_hat at k = 18"
    # delta_hat ~0.394 >= sigma/(1+sigma) ~0.382
    assert properness_check(roy212).delta_ok is False
    qs = quantities(roy212.prog)
    with pytest.raises(ImproperDelta):
        closed_form(qs.sigma, R.delta, qs.tau, qs.sigma_prime)


def test_hat_rescaling_tracks_log_norms(P_bl, bl12):
    with mpmath.workprec(256):
        rho = P_bl.hat_scale
        for k in range(P_bl.k_lo, P_bl.k_hi + 1):
            hat = P_bl.hatw.log(k) / rho
            assert abs(hat - bl12.seq.log_norm(k, 256)) < 0.5


# --- windows and the map P ---------------------------------------------------

def test_windows_tile_the_span(P_bl):
    ws = P_bl.pieces()
    lo, hi = P_bl.span
    assert abs(float(ws[0].q_lo - lo)) < 1e-20
    assert abs(float(ws[-1].q_hi - hi)) < 1e-20
    for a, b in zip(ws, ws[1:]):
        assert abs(float(a.q_hi - b.q_lo)) < 1e-20
        assert a.q_lo < a.q_hi


def test_P_sums_to_q_and_is_sorted(P_bl):
    lo, hi = (float(x) for x in P_bl.span)
    for t in range(12):
        q = lo + (hi - lo) * (t + 0.3) / 12
        p = P_bl.P(q)
        assert p[0] <= p[1] <= p[2]
        assert abs(float(p[0] + p[1] + p[2]) - q) < 1e-9
        assert p[0] >= -1e-9
    with pytest.raises(ValueError):
        P_bl.P(hi + 100)


def test_breakpoint_kinds(P_bl):
    bp = P_bl.breakpoints()
    for kind in ("q_t", "c_t", "c_end", "d", "a_t", "b_t", "q_t1"):
        assert bp[kind], kind
    lo, hi = (float(x) for x in P_bl.span)
    for kind, pts in bp.items():
        for k, q in pts:
            assert lo - 1e-9 <= float(q) <= hi + 1e-9, (kind, k, float(q))


def test_I_intervals_inside_windows(P_bl):
    # delta = 0: I_i = [a_i, b_i] has positive width (1 - 2 delta) log Y_i
    ivs = P_bl.I_intervals()
    assert ivs
    for i, a, b in ivs:
        assert b > a
    # gray intervals degenerate to points at delta = 0
    for _, b, a in P_bl.gray_intervals():
        assert abs(float(a - b)) < 1e-20


def test_gray_positive_width_for_roy(roy212):
    R = predicted_system(roy212, (3, 7), delta=mpmath.mpf("0.3"))
    widths = [float(a - b) for _, b, a in R.gray_intervals()]
    assert widths and min(widths) > 0


# --- validity ----------------------------------------------------------------

def test_bl_system_is_valid(P_bl):
    rep = validate_3system(P_bl, tol=1e-9)
    assert rep.def_conditions_ok, rep.failures[:3]
    assert rep.shape_ok, rep.shape_failures[:3]
    assert rep.valid


def test_forced_half_delta_is_invalid(bl12):
    # delta = 1/2 collapses the I_i intervals; the ordering/sum/slope conditions still pass
    # numerically, so the verdict has to come from the shape checks
    P = predicted_system(bl12, (3, 10), delta=mpmath.mpf("0.5"))
    rep = validate_3system(P, tol=1e-9)
    assert not rep.valid
    assert not rep.shape_ok
    kinds = {f[0] for f in rep.shape_failures}
    assert kinds & {"boundary_mid_below", "gap_negative", "I_empty"}


class Line:
    """a + b q on the whole line, with no kink."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self, q):
        return self.a + self.b * q

    def slope(self, q):
        return self.b

    def kinks_in(self, q_lo, q_hi):
        return []


class Windows:
    """A system given by its windows (q_lo, q_hi, [(a, b), ...])."""

    def __init__(self, *windows):
        self.windows = [paramgeo.Window(q_lo=lo, q_hi=hi, funcs=[Line(a, b) for a, b in fs])
                        for lo, hi, fs in windows]

    def pieces(self):
        return self.windows


def test_fake_system_rejected(P_bl):
    # every component a third of q on P's windows: slope 1/3, no slope-1 component
    rep = validate_3system(Windows(*[(w.q_lo, w.q_hi, [(0, 1 / 3)] * 3)
                                     for w in P_bl.pieces()]), tol=1e-9)
    assert not rep.valid
    assert "slopes" in {f[0] for f in rep.failures}


def test_node_failures_roy_period_12():
    # on the period-(1,2) program the roy(2,1,2) prediction breaks condition 3
    # at two interior crossings: the slope-1 component moves up from P2 to P3
    # where P2 < P3
    b = make_bundle(roy_family(2, 1, 2), SturmianProgram([-1, 1], [1, 2]))
    rep = validate_3system(predicted_system(b, (3, 8)), tol=1e-9)
    assert rep.failures == [
        ("kink", pytest.approx(53.14609990985334, rel=1e-12), 1, 2,
         pytest.approx(1.016911878887754, rel=1e-9)),
        ("kink", pytest.approx(198.42637159611593, rel=1e-12), 1, 2,
         pytest.approx(3.8858719772006936, rel=1e-9)),
    ]
    assert not rep.def_conditions_ok


def test_window_jump_is_a_continuity_failure():
    # sorted values (0, 0, 2) on the left of q = 2 and (0, 1, 1) on the right
    rep = validate_3system(Windows((1.0, 2.0, [(0, 0), (0, 0), (0, 1)]),
                                   (2.0, 3.0, [(1, 0), (1, 0), (-2, 1)])), tol=1e-9)
    assert rep.failures == [("continuity", 2.0)]


def test_rank_rise_across_windows_is_a_kink_failure():
    # continuous at q = 6 with values (1, 2, 3), but the rising component jumps
    # from P1 on the left to P3 on the right, and P1(6) < P3(6)
    rep = validate_3system(Windows((5.0, 6.0, [(-5, 1), (2, 0), (3, 0)]),
                                   (6.0, 7.0, [(1, 0), (2, 0), (-3, 1)])), tol=1e-9)
    assert rep.failures == [("kink", 6.0, 0, 2, 2.0)]
    assert not rep.valid


# --- minima ------------------------------------------------------------------

def test_traj_eval_monotone(cb_bl):
    u = cb_bl.u(256)
    x = SymVec(1, 0, 0)
    with mpmath.workprec(256):
        L0, Ls0 = traj_eval(x, u, mpmath.mpf(1))
        L1, Ls1 = traj_eval(x, u, mpmath.mpf(5))
        assert L1 >= L0            # L is non-decreasing in q
        assert Ls1 <= Ls0 + 1e-30  # L* non-increasing for this point


_coord = st.integers(-2 ** 64, 2 ** 64)
# a random integer point, or a small combination of three consecutive y_i
# (those have small x.u and x^u, so both terms of a key take part)
_point = st.one_of(
    st.tuples(st.just("random"), st.tuples(_coord, _coord, _coord)),
    st.tuples(st.integers(-2, 16), st.tuples(*[st.integers(-3, 3)] * 3)))


def _make_point(bundle, recipe):
    if recipe[0] == "random":
        return SymVec(*recipe[1])
    i, (a, b, c) = recipe
    ys = bundle.ys
    return a * ys.at(i) + b * ys.at(i + 1) + c * ys.at(i + 2)


@settings(max_examples=300, deadline=None)
@given(seed=st.sampled_from(["bl", "roy"]), q=st.floats(0, 700), ra=_point, rb=_point)
def test_size_keys_order_like_trajectories(cb_bl, cb_roy, seed, q, ra, rb):
    """Where two trajectories differ by more than the rounding bound of
    `_size_keys` (2 eta, eta = 3 e^q 2^-p) plus the p-bit rounding of the
    trajectories themselves, the integer keys order the points the same way,
    on both sides."""
    cb = cb_bl if seed == "bl" else cb_roy
    a, b = _make_point(cb.bundle, ra), _make_point(cb.bundle, rb)
    assume(not a.is_zero() and not b.is_zero())
    p = cb.prec_for(q)
    u = cb.u(p)
    with mpmath.workprec(p):
        qm = mpmath.mpf(q)
        keys = paramgeo._size_keys(u, qm, p)
        ta, tb = traj_eval(a, u, qm, p), traj_eval(b, u, qm, p)
        eq = mpmath.exp(qm)
        u1 = sum(abs(c) for c in u)
        for side in (paramgeo.PRIMAL, paramgeo.DUAL):
            la, lb = ta[side], tb[side]
            # 2 eta, plus the p-bit rounding of the mpf dot products (relative
            # to |x.u| >= |x| e^-q), logs and square roots inside the trajectories
            tol = mpmath.ldexp(2 * 3 * eq + 4 * u1 * eq + abs(la) + abs(lb) + 8, -p)
            key = keys[side][0]
            ka, kb = key(a), key(b)
            if la < lb - tol:
                assert ka < kb, (side, la, lb)
            elif lb < la - tol:
                assert kb < ka, (side, la, lb)


def test_candidates_match_bruteforce_bl(cb_bl):
    for q in (2.0, 5.0, 8.0):
        cand = minima_candidates(cb_bl, mpmath.mpf(q))
        brute = minima_bruteforce(cb_bl, mpmath.mpf(q))
        for j in range(3):
            assert abs(float(cand.L[j] - brute.L[j])) < 1e-9, (q, j)
        assert brute.method == "bruteforce"


def test_candidates_match_bruteforce_roy(cb_roy):
    for q in (3.0, 7.0):
        cand = minima_candidates(cb_roy, mpmath.mpf(q))
        brute = minima_bruteforce(cb_roy, mpmath.mpf(q))
        for j in range(3):
            assert abs(float(cand.L[j] - brute.L[j])) < 1e-9, (q, j)


def test_minima_are_ordered_and_independent(cb_bl):
    s = minima_candidates(cb_bl, mpmath.mpf(6))
    assert float(s.L[0]) <= float(s.L[1]) <= float(s.L[2])
    assert len(s.points) == 3
    assert det3(*s.points) != 0


def test_bruteforce_radius_guard(cb_bl):
    with pytest.raises(TooLarge, match="enumeration box has .* cells"):
        minima_bruteforce(cb_bl, mpmath.mpf(40))


@pytest.mark.parametrize("q", [36, 705, 720])
def test_bruteforce_refuses_what_it_cannot_scan(cb_bl, q):
    """At each of these q a box passes _CAP cells (at q = 705 and 720 with
    e^{2q} far past the float64 range, which the exact bodies never enter)."""
    with pytest.raises(TooLarge, match="enumeration box has .* cells"):
        minima_bruteforce(cb_bl, mpmath.mpf(q))


def test_bruteforce_reaches_q34(cb_bl):
    """bl(1,2) at q = 34, past the reach of the float64 kernels: the
    brute-force minima are at most the candidate ones."""
    q = mpmath.mpf(34)
    brute, cand = minima_bruteforce(cb_bl, q), minima_candidates(cb_bl, q)
    assert all(b <= c for b, c in zip(brute.L + brute.Lstar, cand.L + cand.Lstar))


def test_bruteforce_refuses_before_walking(cb_bl_p2, monkeypatch):
    """Period-2 bl(1,2) at q = 25: the dual box is too large, and the
    refusal comes before either side is walked, within 0.1 s of the
    candidate call."""
    from sturmlab import kernels
    spent, inner = [], paramgeo.minima_candidates

    def timed(*args):
        t = time.perf_counter()
        out = inner(*args)
        spent.append(time.perf_counter() - t)
        return out

    monkeypatch.setattr(paramgeo, "minima_candidates", timed)
    monkeypatch.setattr(kernels, "_walk", lambda *a: pytest.fail("a side was walked"))
    t = time.perf_counter()
    with pytest.raises(TooLarge, match=r"the dual enumeration box has \d+ cells"):
        minima_bruteforce(cb_bl_p2, mpmath.mpf(25))
    assert time.perf_counter() - t - sum(spent) < 0.1


@pytest.mark.parametrize("builder, q", [("cb_bl", 2.0), ("cb_bl", 13.0), ("cb_roy", 8.0),
                                        ("cb_roy278", 20.0)])
def test_bruteforce_lists_the_witnesses_of_its_bound(request, monkeypatch, builder, q):
    """Each side's bound B is the largest key of the candidate triple or of
    the reduced basis, whichever is smaller; the three points that give it
    are independent and are listed, up to sign.  The candidates give every
    bound here but the dual ones of roy(2,1,2) at q = 8 and roy(2,7,8) at
    q = 20, which the reduced basis gives."""
    from sturmlab import kernels
    cb, qm = request.getfixturevalue(builder), mpmath.mpf(q)
    calls = []
    for name in ("collect_primal", "collect_dual"):
        monkeypatch.setattr(kernels, name, lambda *a, f=getattr(kernels, name):
                            calls.append((a, f(*a))) or calls[-1][1])
    minima_bruteforce(cb, qm)
    cand, p = minima_candidates(cb, qm), cb.prec_for(q)
    with mpmath.workprec(p):
        bodies = paramgeo._size_keys(cb.u(p), qm, p)
    by_basis = []
    for (args, (pts, _)), (key, terms), triple in zip(calls, bodies, (cand.points, cand.dual_points)):
        bound = args[4] * 2 ** (3 * p)
        basis = kernels._reduced(terms)[0]
        witnesses = triple if key(triple[2]) == bound else basis
        by_basis.append(witnesses is basis)
        assert max(map(key, witnesses)) == bound and det3(*witnesses) != 0
        listed = set(x.as_tuple() for x in pts)
        assert all(x.as_tuple() in listed or (-x).as_tuple() in listed for x in witnesses)
    assert by_basis == [False, builder != "cb_bl"]


@pytest.mark.parametrize("seed, q", [("bl", 20), ("bl", 28), ("bl", 30),
                                     ("roy", 20), ("roy", 24), ("roy", 28)])
def test_bruteforce_below_candidates_to_q30(request, seed, q):
    """Past the reach of the window scan, the brute-force minima are at most
    the candidate ones."""
    cb = request.getfixturevalue("cb_" + seed)
    brute, cand = minima_bruteforce(cb, mpmath.mpf(q)), minima_candidates(cb, mpmath.mpf(q))
    assert brute.method == "bruteforce"
    assert all(b - c <= 1e-30 for b, c in zip(brute.L + brute.Lstar, cand.L + cand.Lstar))


@pytest.mark.parametrize("family, q", [(bl_family(1, 2), 17.36), (roy_family(2, 1, 2), 16.2)],
                         ids=["bl12-dual", "roy212-primal"])
def test_bruteforce_survives_float_cancellation(prog_twos, family, q):
    """On period 2 the float64 lam of the candidate's own third point (dual
    for bl(1,2), primal for roy(2,1,2)) exceeds its exact value by more than
    10^-9 relative at these q, which once dropped the point; the exact keys
    keep it."""
    builder = CandidateBuilder(make_bundle(family, prog_twos), prec=256)
    brute, cand = minima_bruteforce(builder, q), minima_candidates(builder, q)
    assert all(b <= c for b, c in zip(brute.L, cand.L))
    assert all(b <= c for b, c in zip(brute.Lstar, cand.Lstar))


# q where the pure-Python window scan of a whole body takes under 0.2 s (on
# bl(1,2) at q = 13 it takes 0.7 s); the golden corpus pins the deeper samples
@pytest.mark.parametrize("builder, qs", [("cb_bl", (8.0, 8.75, 9.5)), ("cb_roy", (12.75,))])
def test_bruteforce_same_with_window_scan(request, monkeypatch, builder, qs):
    """Brute-force samples are identical with the reduced kernels and with
    the exact window scan of tests/test_kernels.py, which reduces nothing."""
    from sturmlab import kernels
    from test_kernels import WINDOW_SCAN
    cb = request.getfixturevalue(builder)
    walked = [minima_bruteforce(cb, mpmath.mpf(q)) for q in qs]
    for name, scan in WINDOW_SCAN.items():
        monkeypatch.setattr(kernels, name, scan)
    assert [minima_bruteforce(cb, mpmath.mpf(q)) for q in qs] == walked


def test_duality_same_with_window_scan(cb_roy, monkeypatch):
    from sturmlab import kernels
    from test_kernels import WINDOW_SCAN
    walked = duality_check(cb_roy, [2.0, 6.0, 10.0])
    for name, scan in WINDOW_SCAN.items():
        monkeypatch.setattr(kernels, name, scan)
    assert duality_check(cb_roy, [2.0, 6.0, 10.0]) == walked


@pytest.mark.parametrize("builder, qs", [("cb_bl", (1.5, 6.0, 11.0, 25.0)),
                                         ("cb_roy", (2.5, 8.0))])
def test_candidate_minima_are_own_trajectories(request, builder, qs):
    """Each L_j and L*_j of a candidate sample is the trajectory of its own
    point, exactly, at the sample's precision."""
    cb = request.getfixturevalue(builder)
    for q in qs:
        s = minima_candidates(cb, mpmath.mpf(q))
        prec = cb.prec_for(q)
        u = cb.u(prec)
        for j in range(3):
            assert s.L[j] == traj_eval(s.points[j], u, s.q, prec)[0], (q, j)
            assert s.Lstar[j] == traj_eval(s.dual_points[j], u, s.q, prec)[1], (q, j)


def test_prec_for_bounds_key_rounding(cb_bl):
    """prec_for(q) = max(256, ceil(q / ln 2) + 192) keeps the rounding bound
    of the keys, eta = 3 e^q 2^-p, below 2^-190 up to q = 2 10^4, also where
    q / ln 2 is next to an integer, and stays at 256 bits for q <= 44."""
    ln2 = math.log(2)
    qs = [i / 8 for i in range(0, 160_001, 97)]
    qs += [k * ln2 + e for k in range(1, 28_854, 37) for e in (-1e-9, 0.0, 1e-9)]
    with mpmath.workprec(128):
        for q in qs:
            p = cb_bl.prec_for(q)
            assert 3 * mpmath.exp(q) * mpmath.ldexp(1, -p) < mpmath.ldexp(1, -190), q
    assert all(cb_bl.prec_for(q / 8) == 256 for q in range(0, 44 * 8 + 1))


def _assert_traj_is_two_logs(cb, q, points_by_side, terms_of):
    """`_traj` with the terms `terms_of(side, u, q, p)` equals the two-log
    definition bit for bit on each side's points, at prec_for(q)."""
    p = cb.prec_for(q)
    u = cb.u(p)
    with mpmath.workprec(p):
        for side, pts in enumerate(points_by_side):
            terms = terms_of(side, u, q, p)
            for x in pts:
                got, want = paramgeo._traj(x, u, q, side, terms), two_log_traj(x, u, q, side)
                assert got._mpf_ == want._mpf_, (float(q), side, x)


def _candidate_terms(side, u, q, p):
    return paramgeo._size_keys(u, q, p)[side][1]


@pytest.mark.parametrize("prog, window", [(SturmianProgram.all_ones(), (3, 12)),
                                          (SturmianProgram([-1, 1], [2]), (3, 7))],
                         ids=["bl12", "bl12_p2"])
def test_single_log_traj_on_breakpoint_samples(prog, window):
    """On every breakpoint sample of the golden corpus's bl(1,2) systems,
    `_traj` gives the two-log trajectory of each base point and each reported
    point, bit for bit, and so does every reported L_j and L*_j."""
    cb = CandidateBuilder(make_bundle(bl_family(1, 2), prog), prec=256)
    P = predicted_system(cb.bundle, window, prec=256)
    seen = set()
    for s in breakpoint_samples(cb, P):
        if s.q in seen:
            continue
        seen.add(s.q)
        base = cb.base_points(s.q)
        _assert_traj_is_two_logs(cb, s.q, (base + s.points, base + s.dual_points), _candidate_terms)
        with mpmath.workprec(cb.prec_for(s.q)):
            u = cb.u(cb.prec_for(s.q))
            assert s.L == tuple(two_log_traj(x, u, s.q, paramgeo.PRIMAL) for x in s.points)
            assert s.Lstar == tuple(two_log_traj(x, u, s.q, paramgeo.DUAL) for x in s.dual_points)
    assert len(seen) > 20


def test_single_log_traj_on_bruteforce_grid():
    """On the brute-force grid of the golden corpus, `_traj` with the terms of
    `kernels._body` gives the two-log trajectory of each base point and each
    recorded brute-force point, bit for bit."""
    from sturmlab import kernels

    def body_terms(side, u, q, p):
        return kernels._body(side, u[1], u[2], q, p)[0]

    for r in json.loads(BRUTEFORCE_RECORDS.read_text()):
        cb, q = golden_builder(r["seed"]), mpmath.mpf(r["q_float"])
        base = cb.base_points(q)
        _assert_traj_is_two_logs(cb, q, [base + [SymVec(*x) for x in r[name]]
                                         for name in ("points", "dual_points")], body_terms)


@pytest.mark.parametrize("side", [paramgeo.PRIMAL, paramgeo.DUAL])
def test_single_log_traj_near_tie_takes_both(cb_bl, monkeypatch, side):
    """Where the two quantities of a side meet (e^q |x.u| = |x|, or
    |x^u| = e^-q |x|), the terms are within the tie margin and `_traj` takes
    both logarithms; a little away from it, one."""
    x = cb_bl.bundle.ys.at(6).primitive()
    p = 256
    u = cb_bl.u(p + 64)
    with mpmath.workprec(p + 64):
        fx = [mpmath.mpf(c) for c in x.as_tuple()]
        norm = mpmath.sqrt(sum(c * c for c in fx))
        if side == paramgeo.PRIMAL:
            other = abs(sum(c * v for c, v in zip(fx, u)))
        else:
            w = (fx[1] * u[2] - fx[2] * u[1], fx[2] * u[0] - fx[0] * u[2], fx[0] * u[1] - fx[1] * u[0])
            other = mpmath.sqrt(sum(c * c for c in w))
        q_tie = mpmath.log(norm) - mpmath.log(other)
    calls = []
    log = mpmath.log
    for q, logs in ((q_tie, 2), (q_tie + 1e-30, 1), (q_tie - 1e-30, 1)):
        assert cb_bl.prec_for(q) == p
        u = cb_bl.u(p)
        with mpmath.workprec(p):
            q = +q
            terms = paramgeo._size_keys(u, q, p)[side][1]
            t0, t1 = terms(x, x)
            assert ((abs(t0 - t1) << paramgeo.TIE_BITS) <= max(t0, t1)) == (logs == 2)
            calls.clear()
            monkeypatch.setattr(mpmath, "log", lambda *a: calls.append(a) or log(*a))
            got = paramgeo._traj(x, u, q, side, terms)
            monkeypatch.undo()
            assert len(calls) == logs
            assert got._mpf_ == two_log_traj(x, u, q, side)._mpf_


# (seed, q, method, points, dual points, L and L* to 50 digits): the selection
# of the candidate and brute-force minima, pinned so that a change to the
# scoring cannot move it unnoticed.  A q given as (kind, k) is that breakpoint
# of the seed's predicted system on k 3:8.
PINNED_MINIMA = [
    ('bl', 2, 'candidate',
     [(0, 1, -1), (1, -1, -1), (-1, 1, 0)],
     [(-2, -1, -1), (1, 1, 1), (2, 2, 1)],
     ('0.39747072457655444859679368379415397082099307833165', '0.57114389823345447415894570278062502965945375726201', '0.72530186852301137443780971564957485500220758349805'),
     ('-0.72096814881620849762496343247781112000828050399684', '-0.5249797365954615945408333955241315251698395421787', '-0.43984088175003293773625099760625321033682474755284')),
    ('bl', 8, 'candidate',
     [(3, -2, -3), (-7, 9, 1), (0, 18, -25)],
     [(25, 18, 13), (129, 93, 67), (-293, -211, -152)],
     ('1.6439411516189088557271728363397101637625066940937', '2.4375986616005757720747120055847629465539550023203', '3.4277043993049639325727981495019305878550103948159'),
     ('-3.3784124872153722106483988955650414122623741966163', '-2.6867888954079801275099704641530299649538010627015', '-1.9602085302561838427802671523971276528886485792331')),
    ('bl', 25, 'candidate',
     [(67, -44, -68), (-1374, 1536, 515), (-14230, -59087, 109423)],
     [(81788, 58927, 42456), (9323256, 6717263, 4839685), (-196949561, -141899139, -102236154)],
     ('5.5949573962903779216622215588278699553321372608879', '7.6611695279390017637185805594159077217858243487707', '11.73741630021497997056739371803612813114360501095'),
     ('-11.471569260203531842236021806713738457290796256893', '-7.6427266151531296178141555306576410628463225528767', '-5.6108360740589973495139974247667031176837171758836')),
    ('roy', 3, 'candidate',
     [(-3, 1, 0), (-3, 4, -1), (2, 5, -2)],
     [(2, 6, 17), (-1, -3, -9), (-4, -11, -32)],
     ('1.1512925464970228420089957273421821038005507443144', '1.6290482690107410227353597815117475864403840395602', '1.7482537807332401177285944074438275022345987058801'),
     ('-0.10197112461731405403684829339232328073343238419896', '0.27501787844428639364639392414991636726420197844345', '0.5285184908489457488292891120567120747508039291749')),
    ('roy', 9, 'candidate',
     [(14, 21, -9), (-9, 29, -9), (-37, 10, 1)],
     [(72, 207, 595), (183, 526, 1512), (191, 549, 1578)],
     ('3.2882347845241120912326625035314282728952230005309', '3.4553753939809677654327924957964120798257749009581', '3.9026622700151597261877736465514423062821656845287'),
     ('-2.0222283262792468026482057706827110410792267178888', '-1.6151993105007477816211579349498175657037665693679', '-1.5724658583522532452531670001969569527586040248573')),
    ('bl', 14.5, 'bruteforce',
     [(13, -13, -7), (41, -18, -54), (141, -579, 532)],
     [(-576, -415, -299), (-14425, -10393, -7488), (45450, 32746, 23593)],
     ('3.1881140940130155951947140339451112446354980897319', '4.2506335204329891047412379231812402153872707890243', '6.6844456749865053146268084692306241278292176055257'),
     ('-6.6567852236598016297603452877787902086710134828966', '-4.3636468611487395481437356085458953791563561251053', '-3.4741140024134871651555034856470038108894205556572')),
    # period-2 bl(1,2) at q ~ 282, scored at 599 bits
    ('bl_p2', ('q_t1', 6), 'candidate',
     [(11264716891871862407000153, -15103507986919000840794730, -7363011698691531810777305),
      (-7109840720309914361039548076275002, -96569896128978592647026151135858598,
       187213318326305046270166470503724583),
      (-167728831519446678833287546537636222532262796405180430149814,
       -2278188269246966593428514821121688461598191900997379513663915,
       4416564613687172156321112991653999556862736831851882028709051)],
     [(3538623123538053066751683731354653179557757270596735705365980,
       2056555188934237232023172440853835818332032893761195790431589,
       1195216076275339062797948240755267375958741317216708884704954),
      (-81835507580929663714380600525990948273150682408305854452338170539621917327160815063745,
       -47560656187188389358265291980453934330971572712727884419658269528898732139545701104325,
       -27641009188083346872955313517394527530126280936562091666410178277641899233363733349727),
      (-333905558806287152882108802543101726460955865241893411945699908492316922761577875157553,
       -194057175800759293724034478325020351140687772630128353583334409746552247159900910892185,
       -112780954035011792475645250154904574878869596219337774095647513707706911489212409919792)],
     ('58.269173257633998205568474010333802254719571989413', '84.240426607447701680339795800220086961482662963645', '139.75899922119829658271841288598251592266458169675'),
     ('-139.5755778907725043759153646213727889729215239793', '-84.076900482493168808407599094364908460514939053394', '-58.082755023203373492110266705235966282264355106043')),
    # the dual enumeration does most of this sample's work
    ('roy', 14.75, 'bruteforce',
     [(-66, -161, 64), (198, -112, 15), (-265, -178, 94)],
     [(4753, 13662, 39270), (-3742, -10756, -30917), (-3105, -8925, -25654)],
     ('5.222513325729031480829446209091673794626634213034', '5.4292398159736789800890188722037212172851243224852', '5.9524696598441450250891591462392931385147936836659'),
     ('-4.1081667264822300836501373079586491826261866236607', '-3.5384155094276479834898762351244965592746547211327', '-3.0581849957508893288444322627765830958690564857418')),
    # period-2 bl(1,2) at q ~ 399, scored at 768 bits: the exact completion
    # centres find a second dual minimum 1.02 lower than a centre solved in mpf
    ('bl_p2', ('q_t', 7), 'candidate',
     [(11264716891871862407000153, -15103507986919000840794730, -7363011698691531810777305),
      (-7163417544578261295827014805035787644112377391054973682470823,
       7093979055811372866409752351739824236283865555642763998601217,
       9002117477295798285838928047649397537365597398007403218483419),
      (-22049944839835510241507250699775901055535892361454094294443386399435936172974142399944,
       90836706081815683410211406392816112041546117733616984236180505207541827486692814026381,
       -91016391692351494563825548264399789509192405501741766421410258437153619951285901833617)],
     [(83730502439308371146084819939225869050287113362281641567998657954086621416751798601685,
       48661977625766990262040809163199549240377887792392874442079919362235870891989347891092,
       28281068397589889936995768876356841813255956474316279440714788780414414817520252176589),
      (-2051126872602406017872286493578972381988408807334206835561626191297818862837891644346859197130185615689329562805,
       -1192061280828164650361539922529986200708250008270177478435194841902626153409696221485553256919527999172177937929,
       -692794832065532341687452368368243277429640899906498100113199486281205132867495875487355614954225029264808538859),
      (-1463391075800160234221439474099557176127003931625386622604128282971867245311748671756911410193670590281569730444944541738914073190314792243932405228,
       -850484610909289351811398053593082576975563525440249703303792936398457328591710040823344183378625374935685678679759696871632693779567440864830532767,
       -494279407162588151035221857348720956811862104701643460613499296646562368812209961796267442676520437195364445179859279020666920519890638848135511695)],
     ('60.042856348455095289099725161940502149210202265952', '140.75896593425650818191414352785117791029739550923', '198.28826380606067909691625920117148730614019899549'),
     ('-198.10557160381315569063124511653444822464279949822', '-140.5971686873699582088074058377155882114671741646', '-59.884831572328502061041401790715950019603913813193')),
]


@pytest.mark.parametrize("seed, q, method, points, dual_points, L, Lstar", PINNED_MINIMA)
def test_pinned_minima(request, seed, q, method, points, dual_points, L, Lstar):
    cb = request.getfixturevalue("cb_" + seed)
    q = _at(cb, q)
    find = minima_candidates if method == "candidate" else minima_bruteforce
    s = find(cb, q)
    assert [p.as_tuple() for p in s.points] == points
    assert [p.as_tuple() for p in s.dual_points] == dual_points
    assert tuple(mpmath.nstr(x, 50) for x in s.L) == L
    assert tuple(mpmath.nstr(x, 50) for x in s.Lstar) == Lstar


def _at(cb, q):
    """q, or the breakpoint (kind, k) of the seed's predicted system on k 3:8."""
    if isinstance(q, tuple):
        return dict(predicted_system(cb.bundle, (3, 8)).breakpoints()[q[0]])[q[1]]
    return mpmath.mpf(q)


@pytest.fixture(scope="module")
def cb_roy_p12():
    prog = SturmianProgram([-1, 1], [1, 2])
    return CandidateBuilder(make_bundle(roy_family(2, 1, 2), prog), prec=256)


@pytest.mark.parametrize("seed, q", [("roy_p12", 300), ("roy_p12", 741), ("bl_p2", ("q_t", 7))])
def test_completion_centres_are_exact(request, seed, q):
    """At depth, the centre of each plane completion around a reported pair
    is the exact least-squares minimiser of the side's integer form over the
    layer, rounded: it lies within 1/2 of it in both plane coordinates."""
    cb = request.getfixturevalue("cb_" + seed)
    q = _at(cb, q)
    s = minima_candidates(cb, q)
    p = cb.prec_for(q)
    with mpmath.workprec(p):
        bodies = paramgeo._size_keys(cb.u(p), q, p)
    for pts, (key, terms) in zip((s.points, s.dual_points), bodies):
        def form(x, y):
            return sum(terms(x, y))

        for x in pts:
            assert key(x) <= form(x, x) <= 2 * key(x)
        for v1, v2 in ((pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])):
            centre = paramgeo._centre(v1, v2, terms)[0]
            # the minimiser centre + a v1 + b v2 solves the normal equations
            f11, f22, f12 = form(v1, v1), form(v2, v2), form(v1, v2)
            r1, r2 = -form(centre, v1), -form(centre, v2)
            det = f11 * f22 - f12 * f12
            a, b = Fraction(r1 * f22 - r2 * f12, det), Fraction(r2 * f11 - r1 * f12, det)
            assert abs(a) <= Fraction(1, 2) and abs(b) <= Fraction(1, 2), (float(a), float(b))


@pytest.fixture(scope="module")
def cb_roy278(prog_ones):
    return CandidateBuilder(make_bundle(roy_family(2, 7, 8), prog_ones), prec=256)


def _full_grid_candidates(cb, q):
    """Reference for `minima_candidates`: each plane completion builds all
    (2 COMPLETION_WINDOW + 1)^2 points of its grid and scores each by
    key(point), around a centre rounded through Fraction, from a layer point
    found by the extended Euclidean loop.  Returns (points, minima) per
    side."""
    w = range(-paramgeo.COMPLETION_WINDOW, paramgeo.COMPLETION_WINDOW + 1)
    prec = cb.prec_for(q)
    out = []
    with mpmath.workprec(prec):
        u, base = cb.u(prec), cb.base_points(q)
        for side, (key, terms) in enumerate(paramgeo._size_keys(u, q, prec)):
            def form(x, y):
                return sum(terms(x, y))

            pts, keys = list(base), [key(p) for p in base]
            triple = paramgeo._greedy_triple(pts, keys)
            for _ in range(2):
                for i, j in ((triple[0], triple[1]), (triple[0], triple[2]),
                             (triple[1], triple[2])):
                    v1, v2 = pts[i], pts[j]
                    n = v1.wedge(v2).primitive()
                    g1, a, b = _euclid(n.x0, n.x1)
                    g, c, d = _euclid(g1, n.x2)
                    x0 = SymVec(g * c * a, g * c * b, g * d)
                    f11, f22, f12 = form(v1, v1), form(v2, v2), form(v1, v2)
                    r1, r2 = -form(x0, v1), -form(x0, v2)
                    det = f11 * f22 - f12 * f12
                    ai = round(Fraction(r1 * f22 - r2 * f12, det))
                    bi = round(Fraction(r2 * f11 - r1 * f12, det))
                    for da in w:
                        for db in w:
                            pts.append(x0 + (ai + da) * v1 + (bi + db) * v2)
                            keys.append(key(pts[-1]))
                new = paramgeo._greedy_triple(pts, keys)
                if new == triple:
                    break
                triple = new
            chosen = [pts[i] for i in triple]
            out.append((chosen, [two_log_traj(x, u, q, side) for x in chosen]))
    return out


COMPLETION_SEEDS = [
    ("bl", 1.5), ("bl", 6.0), ("bl", 11.0), ("bl", 25.0), ("bl", ("q_t", 7)),
    ("bl_p2", 4.0), ("bl_p2", 13.0), ("bl_p2", ("q_t", 7)),
    ("roy_p12", 300), ("roy_p12", 741),
    ("roy278", 3.0), ("roy278", 9.0), ("roy278", ("q_t", 7))]


def _recorded_completions(monkeypatch, cb, q):
    """minima_candidates(cb, q), and every `_completions` call it makes as
    (side, terms, v1, v2, centre, bound, entries), with the terms of the
    call's side (each side completes once, primal first)."""
    calls, sides = [], []
    complete, completions = CandidateBuilder._complete, CandidateBuilder._completions

    def complete_recorded(builder, triple, pts, keys, terms):
        sides.append(terms)
        return complete(builder, triple, pts, keys, terms)

    def completions_recorded(builder, v1, v2, centre, bound):
        out = completions(builder, v1, v2, centre, bound)
        calls.append((len(sides) - 1, sides[-1], v1, v2, centre, bound, out))
        return out

    monkeypatch.setattr(CandidateBuilder, "_complete", complete_recorded)
    monkeypatch.setattr(CandidateBuilder, "_completions", completions_recorded)
    s = minima_candidates(cb, q)
    monkeypatch.undo()
    assert len(sides) == 2
    return s, calls


@pytest.mark.parametrize("seed, q", COMPLETION_SEEDS)
def test_pruned_completions_match_full_grid(request, monkeypatch, seed, q):
    """Plane completions that keep only the points that can still enter the
    triple give bit-identical candidate minima to the full grids, and the key
    of every kept entry, from the quadratic expansion, is the exact key of
    the point x_c + da v1 + db v2 that it stands for."""
    cb = request.getfixturevalue("cb_" + seed)
    q = _at(cb, q)
    s, calls = _recorded_completions(monkeypatch, cb, q)
    built = [(terms, xc + da * v1 + db * v2, k)
             for _, terms, _, _, _, _, out in calls for k, xc, v1, da, v2, db in out]
    assert built and all(k == max(terms(x, x)) for terms, x, k in built)
    (points, L), (dual_points, Lstar) = _full_grid_candidates(cb, q)
    assert [x.as_tuple() for x in s.points] == [x.as_tuple() for x in points]
    assert [x.as_tuple() for x in s.dual_points] == [x.as_tuple() for x in dual_points]
    assert [x._mpf_ for x in s.L] == [x._mpf_ for x in L]
    assert [x._mpf_ for x in s.Lstar] == [x._mpf_ for x in Lstar]


@pytest.mark.parametrize("seed, q", COMPLETION_SEEDS)
def test_completions_scan_every_grid_point_below_the_bound(request, monkeypatch, seed, q):
    """Each plane completion keeps exactly the points of its full grid around
    x_c whose key is at most its bound B', in grid order.  Each of them
    passes the row test (2|da| - 1)^2 det <= 8 B' f22 (or da = 0) and the
    column test (2|db| - 1)^2 det <= 8 B' f11 (or db = 0), so it lies in the
    rows and columns scanned; and B' is at least the key of the third point
    that the side reports."""
    cb = request.getfixturevalue("cb_" + seed)
    q = _at(cb, q)
    s, calls = _recorded_completions(monkeypatch, cb, q)
    w = range(-paramgeo.COMPLETION_WINDOW, paramgeo.COMPLETION_WINDOW + 1)
    assert {side for side, *_ in calls} == {paramgeo.PRIMAL, paramgeo.DUAL}
    for side, terms, v1, v2, (xc, _, _), bound, out in calls:
        third = (s.points, s.dual_points)[side][2]
        assert bound >= max(terms(third, third))
        f11, f22, f12 = (sum(terms(x, y)) for x, y in ((v1, v1), (v2, v2), (v1, v2)))
        det = f11 * f22 - f12 * f12
        below = []
        for da in w:
            for db in w:
                x = xc + da * v1 + db * v2
                k = max(terms(x, x))
                if k <= bound:
                    below.append((k, da, db))
                    assert da == 0 or (2 * abs(da) - 1) ** 2 * det <= 8 * bound * f22
                    assert db == 0 or (2 * abs(db) - 1) ** 2 * det <= 8 * bound * f11
        assert [(k, da, db) for k, _, _, da, _, db in out] == below


def test_greedy_triple_builds_entries_only_where_it_reads():
    """On a list that mixes points with unbuilt completion entries (key, x_c,
    v1, da, v2, db), `_greedy_triple` picks the indices it picks on the built
    list, builds every entry up to the last sorted position it reads, and
    builds none past it."""
    rng = random.Random(24)

    def vec():
        return SymVec(*(rng.randint(-2, 2) for _ in range(3)))

    for _ in range(400):
        keys, mixed, full, n = [], [], [], rng.randint(3, 12)
        while len(keys) < n:
            k = rng.randint(0, 5)
            if rng.random() < 0.5:
                entry = (k, vec(), vec(), rng.randint(-4, 4), vec(), rng.randint(-4, 4))
                x = entry[1] + entry[3] * entry[2] + entry[5] * entry[4]
            else:
                entry = x = vec()
            if not x.is_zero():
                keys.append(k)
                mixed.append(entry)
                full.append(x)
        pts = list(mixed)
        want = paramgeo._greedy_triple(list(full), keys)
        assert paramgeo._greedy_triple(pts, keys) == want
        order = sorted(range(len(keys)), key=keys.__getitem__)
        read = len(order) if want is None else order.index(want[-1]) + 1
        assert [pts[i] for i in order[:read]] == [full[i] for i in order[:read]]
        assert [pts[i] for i in order[read:]] == [mixed[i] for i in order[read:]]


@pytest.mark.parametrize("period", [[1], [2], [1, 2]], ids=str)
@pytest.mark.parametrize("family,params", [("bl", (1, 2)), ("roy", (2, 1, 2)), ("roy", (2, 7, 8))])
def test_base_points_match_integerized_zhat(family, params, period):
    """The z-hat candidates are the primitive z_j: det(w_2) z_j of the wedge
    reference, formed by `divmod`, differs at most in sign and content, and
    base_points fixes the sign."""
    seed = (bl_family if family == "bl" else roy_family)(*params)
    cb = CandidateBuilder(make_bundle(seed, SturmianProgram([-1, 1], period)), prec=256)
    ys, zs = cb.bundle.ys, WedgeZ(cb.bundle)
    for q in (1, 4, 9, 16):
        i_max = cb.i_max_for(q)
        pts = [SymVec(1, 0, 0), SymVec(0, 1, 0), SymVec(0, 0, 1)]
        pts += [ys.at(i).primitive() for i in range(-2, i_max + 1)]
        pts += [zs.integerized(j).primitive() for j in range(0, i_max + 1)]
        ref = {}
        for p in pts:
            p = p if p.x0 > 0 or (p.x0 == 0 and (p.x1, p.x2) > (0, 0)) else -p
            ref.setdefault(p.as_tuple())
        assert [p.as_tuple() for p in cb.base_points(q)] == list(ref)


def test_round_div_is_round_of_fraction():
    """One divmod rounds like round(Fraction(n, d)): to nearest, half to even."""
    rng = random.Random(16)
    cases = [(3, 2), (5, 2), (-3, 2), (-5, 2), (9, 6), (15, 6), (-9, 6), (-15, 6),
             (0, 5), (7, 1), (-7, 1), (-1, 3), (-2, 3), (2, 3), (-4, 3)]
    for _ in range(300):
        d = rng.getrandbits(3000) | 1 << 2999
        m = rng.getrandbits(3000) - (1 << 2999)
        # ties with an odd and an even quotient, and generic operands
        cases += [((2 * m + 1) * d, 2 * d), ((4 * m + 1) * d, 2 * d),
                  ((4 * m + 3) * d, 2 * d), (rng.getrandbits(3000) - (1 << 2999), d)]
    for n, d in cases:
        assert paramgeo._round_div(n, d) == round(Fraction(n, d)), (n, d)


def _euclid(a, b):
    """The extended Euclidean loop, with floor division: the reference that
    `paramgeo._ext_gcd` must reproduce."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


@st.composite
def _gcd_pairs(draw):
    """Signed pairs: free, with a zero, of equal magnitudes, one an exact
    multiple of the other, or with a large common factor and a small
    cofactor (|b| / gcd down to 1 and 2)."""
    big = st.integers(-2 ** 300, 2 ** 300)
    a, b = draw(big), draw(big)
    shape = draw(st.sampled_from(("free", "zero", "equal", "divisor", "common")))
    if shape == "zero":
        a, b = draw(st.sampled_from(((0, b), (a, 0), (0, 0))))
    elif shape == "equal":
        b = draw(st.sampled_from((a, -a)))
    elif shape == "divisor":
        k = draw(st.integers(-9, 9))
        a, b = draw(st.sampled_from(((b * k, b), (a, a * k))))
    elif shape == "common":
        g = draw(st.integers(1, 2 ** 200))
        a, b = a * g, g * draw(st.integers(-5, 5))
    return a, b


@settings(max_examples=2000, deadline=None)
@given(_gcd_pairs())
def test_ext_gcd_is_the_euclid_loop(ab):
    assert paramgeo._ext_gcd(*ab) == _euclid(*ab)


def test_ext_gcd_is_the_euclid_loop_on_small_pairs():
    for a in range(-40, 41):
        for b in range(-40, 41):
            assert paramgeo._ext_gcd(a, b) == _euclid(a, b), (a, b)


def test_bruteforce_ranks_by_exact_keys(cb_roy, monkeypatch):
    """The keys each kernel returns, by which brute force ranks its points,
    are the exact keys of `_size_keys` of those points."""
    from sturmlab import kernels
    q, calls = mpmath.mpf(7), []
    for name in ("collect_primal", "collect_dual"):
        monkeypatch.setattr(kernels, name, lambda *a, f=getattr(kernels, name):
                            calls.append(f(*a)) or calls[-1])
    minima_bruteforce(cb_roy, q)
    p = cb_roy.prec_for(q)
    with mpmath.workprec(p):
        bodies = paramgeo._size_keys(cb_roy.u(p), q, p)
    assert len(calls) == 2
    for (pts, keys), (key, _) in zip(calls, bodies):
        assert len(pts) > 3 and keys == [key(x) for x in pts]


def test_breakpoint_samples_share_abscissas(bl12, monkeypatch):
    P = predicted_system(bl12, (3, 7))
    loop = [minima_candidates(CandidateBuilder(bl12, prec=256), q, P=P, kind=kind, k=k)
            for kind, pts in P.breakpoints().items() for k, q in pts]
    calls = []
    inner = paramgeo.minima_candidates

    def counted(builder, q, **kwargs):
        calls.append(q)
        return inner(builder, q, **kwargs)

    monkeypatch.setattr(paramgeo, "minima_candidates", counted)
    shared = breakpoint_samples(CandidateBuilder(bl12, prec=256), P)
    assert shared == loop
    assert sorted(calls) == sorted(set(s.q for s in loop)) and len(calls) < len(loop)


def test_duality(cb_bl):
    rep = duality_check(cb_bl, [2.0, 4.0, 6.0, 8.0])
    for j in (1, 2, 3):
        assert math.isfinite(rep.per_j[j])
        assert rep.per_j[j] < 5.0
    assert rep.non_growing


def test_compare_and_export(P_bl, cb_bl):
    samples = [minima_candidates(cb_bl, mpmath.mpf(q), P=P_bl)
               for q in (6.0, 9.0, 12.0, 15.0)]
    rep = compare(P_bl, samples)
    assert rep.rows and len(rep.rows[0]) == 8
    rows = csv_rows(P_bl, samples)
    assert rows[0].startswith("q,")
    assert len(rows) == 1 + len(samples)
    svg = svg_plot(P_bl, samples, config_note="test run")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "test run" in svg
