import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmlab.approx import (
    BadIndex, FibonacciOnly, contents_report, gray_fan, make_bundle,
    verify_identities,
)
from sturmlab.exactlin import IntMat2, SymVec, det3
from sturmlab.matseq import (
    DegenerateSeed, MatrixSeed, SingularN, bl_family, roy_family, solve_admissibility,
)
from sturmlab.sturm import SturmianProgram

EXPECTED_CHECKS = {
    "square_step", "y_recurrence_block", "z_wedge", "det3_triple", "ladder_coprime",
    "coprimality_hypothesis",
}


def test_identity_suite_roy(roy212):
    rep = verify_identities(roy212, roy212.prog.t(10))
    assert rep.ok, rep.failures[:3]
    assert set(rep.checks) == EXPECTED_CHECKS
    assert all(n > 0 for n in rep.checks.values())
    assert "ok" in rep.summary()


@pytest.mark.parametrize("bump", [IntMat2(1, 0, 0, 0), IntMat2(0, 1, 1, 0), IntMat2(0, 0, 0, -1)])
def test_corrupted_y_fails(prog_twos, bump):
    """Replacing any one y_i of a block by a nearby symmetric matrix is caught,
    at the block start and inside the block."""
    k = 3
    prog = prog_twos
    block = range(prog.t(k), prog.t(k + 1))
    assert len(block) > 1
    for i in block:
        bundle = make_bundle(roy_family(2, 1, 2), prog)
        bundle.ys._memo[i] = bundle.ys.mat(i) + bump
        assert bundle.ys.mat(i).is_symmetric()
        rep = verify_identities(bundle, prog.t(k + 2))
        assert not rep.ok, i
        assert any(f[0] == "square_step" for f in rep.failures), i


@pytest.mark.parametrize("bundle_name, failing", [
    ("roy212", {"z_wedge"}),
    ("roy212_p2", {"z_wedge"}),
])
def test_corrupted_z_fails(request, bundle_name, failing):
    """Adding (1, 0, 0) to one z numerator, at a block start, is caught by the
    z wedge identity (and on Fibonacci by the gray fan's wedge check)."""
    prog = request.getfixturevalue(bundle_name).prog
    bundle = make_bundle(roy_family(2, 1, 2), prog)
    j = prog.t(6 if prog.is_fibonacci else 4)
    bundle.zs._memo[j] = bundle.zs.num(j) + SymVec(1, 0, 0)
    rep = verify_identities(bundle, prog.t(8 if prog.is_fibonacci else 6))
    assert {f[0] for f in rep.failures} == failing
    if prog.is_fibonacci:
        assert not gray_fan(bundle, j - 1).wedge_ok


def test_identity_suite_all_seeds(roy313, bl12, roy212_p2):
    for bundle in (roy313, bl12, roy212_p2):
        i_max = bundle.prog.t(9)
        rep = verify_identities(bundle, i_max)
        assert rep.ok, (bundle.seed.family, rep.failures[:3])


def test_y_boundary_values(bl12):
    seed = bl12.seed
    assert bl12.ys.mat(-2) == seed.w0 @ seed.N.transpose()
    assert bl12.ys.mat(-1) == seed.w1 @ seed.N
    with pytest.raises(BadIndex):
        bl12.ys.mat(-3)


def test_y_symmetric_and_content(roy212):
    dN = abs(roy212.seed.det_N)
    for i in range(-2, 20):
        m = roy212.ys.mat(i)
        assert m.is_symmetric()
        assert dN % roy212.ys.content(i) == 0


def test_z_integerized(roy212):
    for j in range(0, 15):
        v = roy212.zs.integerized(j)
        assert not v.is_zero()
    assert roy212.zs.den(-1) == roy212.seq.det(0)
    with pytest.raises(BadIndex):
        roy212.zs.num(-2)


def test_z_orthogonal_to_leading_y(bl12):
    # z_j is (1/det w_k) y_{psi(t_{k+1})} ^ y_j, so it is orthogonal to both
    prog = bl12.prog
    for j in range(0, 12):
        k, _ = prog.block_of(j)
        lead = bl12.ys.at(prog.psi(prog.t(k + 1)))
        z = bl12.zs.num(j)
        assert bl12.zs.den(j) == bl12.seq.det(k)
        assert z.dot(lead) == 0
        assert z.dot(bl12.ys.at(j)) == 0


def test_contents_report(roy212, bl12):
    for bundle in (roy212, bl12):
        rep = contents_report(bundle, bundle.prog.t(10))
        assert rep.y_divides_detN
        assert rep.z_integral
        assert rep.z_divides_bound
        assert rep.content_bound > 0


def z_dot_y_identity(bundle, i: int) -> tuple:
    """Exact check of |<z_i, y_{i+1}>| = |det w_k|^{-1} |det3(y_{t_k-1}, y_i, y_{i+1})|
    for i = t_k + l; returns (lhs, rhs) as Fractions."""
    prog, seq, ys, zs = bundle.prog, bundle.seq, bundle.ys, bundle.zs
    k, _ = prog.block_of(i)
    lhs = Fraction(abs(zs.num(i).dot(ys.at(i + 1))), abs(zs.den(i)))
    rhs = Fraction(abs(det3(ys.at(prog.t(k) - 1), ys.at(i), ys.at(i + 1))), abs(seq.det(k)))
    return lhs, rhs


def test_z_dot_y_identity(roy212, bl12):
    for bundle in (roy212, bl12):
        for i in range(1, 12):
            lhs, rhs = z_dot_y_identity(bundle, i)
            assert lhs == rhs
            assert isinstance(lhs, Fraction)


def test_det3_of_consecutive_ys_nonzero(roy212):
    # consecutive y-triples span Z^3 up to the determinant factor
    ys = roy212.ys
    for i in range(-1, 10):
        assert det3(ys.at(i - 1), ys.at(i), ys.at(i + 1)) != 0


def test_gray_fan_endpoints_and_wedge(roy212):
    for i in (3, 4, 5, 6):
        fan = gray_fan(roy212, i)
        assert fan.endpoints_ok
        assert fan.recurrence_ok
        assert fan.wedge_ok
        assert fan.content_gcd_ok
        assert fan.decomposition_ok
        assert fan.content_pairs_relaxed_ok
        assert len(fan.points) == len(fan.contents) >= 2


def test_gray_fan_known_counterexample(roy212):
    # c_m c_{m+1} | d_i fails at i = 3 (content 16 vs d_3 = 8) while the
    # relaxed divisibility through content(d_i z_{i+1}) still holds
    fan = gray_fan(roy212, 3)
    assert not fan.content_pairs_ok
    assert fan.content_pairs_relaxed_ok


def test_gray_fan_fibonacci_only(roy212_p2):
    with pytest.raises(FibonacciOnly):
        gray_fan(roy212_p2, 4)


def test_bundle_shares_sequences(bl12):
    assert bl12.ys.seq is bl12.seq
    assert bl12.zs.ys is bl12.ys
    assert bl12.prog.is_fibonacci


def test_failure_reporting():
    # sanity of the reporting path: an impossible index range reports cleanly
    bundle = make_bundle(roy_family(2, 1, 3), SturmianProgram.all_ones())
    rep = verify_identities(bundle, bundle.prog.t(6))
    assert rep.ok
    assert rep.i_max == bundle.prog.t(6)


# (period, i) -> the (name, index) of every failure, in order, when y_i is
# replaced by IntMat2(a, b + 1, c + 1, d) before verifying to t_9; recorded on
# the verifier that formed every product, wedge and gcd directly, and the same
# for roy(2,1,2) and bl(1,2)
PERTURBED_Y_FAILURES = {
    (1, 3): [("square_step", [(2,), (3,), (5,)]),
             ("y_recurrence_block", [(3, 0), (4, 0), (6, 0)]),
             ("det3_triple", [(3,), (4,), (5,)]),
             ("z_wedge", [(3, 0), (4, 0), (5, 0)]),
    ],
    (1, 6): [("square_step", [(5,), (6,)]),
             ("y_recurrence_block", [(6, 0), (7, 0)]),
             ("det3_triple", [(6,), (7,), (8,)]),
             ("z_wedge", [(6, 0), (7, 0), (8, 0)]),
    ],
    (2, 3): [("square_step", [(2,), (3,), (6,)]),
             ("y_recurrence_block", [(2, 0), (2, 1), (4, 0)]),
             ("det3_triple", [(2,), (3,)]),
             ("z_wedge", [(2, 0), (2, 1), (3, 0), (3, 1)]),
    ],
    (2, 6): [("square_step", [(5,), (6,), (7,)]),
             ("y_recurrence_block", [(3, 1), (4, 0), (4, 1)]),
             ("det3_triple", [(4,)]),
             ("z_wedge", [(3, 0), (3, 1), (4, 0)]),
    ],
}


def _direct_sides(bundle, name, idx):
    """(lhs, rhs) of a square_step or det3_triple instance, each product formed
    in full."""
    prog, seq, ys, seed = bundle.prog, bundle.seq, bundle.ys, bundle.seed
    if name == "square_step":
        j, = idx
        p = ys.mat(prog.psi(j))
        adj_p = IntMat2(p.d, -p.b, -p.c, p.a)
        return p.det() * ys.mat(j + 1), ys.mat(j) @ adj_p @ ys.mat(j)
    k, = idx
    i = prog.t(k)
    return (det3(ys.at(i - 1), ys.at(i), ys.at(i + 1)),
            -seq.det(k) * ys.mat(i).det() * seed.N_parity(k + 1).tr_J())


@pytest.mark.parametrize("period, i", sorted(PERTURBED_Y_FAILURES))
@pytest.mark.parametrize("seed", [roy_family(2, 1, 2), bl_family(1, 2)], ids=["roy212", "bl12"])
def test_perturbed_y_failures_unchanged(seed, period, i):
    prog = SturmianProgram([-1, 1], [period])
    bundle = make_bundle(seed, prog)
    m = bundle.ys.mat(i)
    bundle.ys._memo[i] = IntMat2(m.a, m.b + 1, m.c + 1, m.d)
    rep = verify_identities(bundle, prog.t(9))
    assert [f[:2] for f in rep.failures] == [
        (name, idx) for name, idxs in PERTURBED_Y_FAILURES[period, i] for idx in idxs]
    for name, idx, lhs, rhs in rep.failures:
        if name in ("square_step", "det3_triple"):
            assert (lhs, rhs) == _direct_sides(bundle, name, idx), (name, idx)


def test_direct_sides_match_unperturbed(roy212_p2):
    # on correct data the direct formulas give equal sides for every index
    prog = roy212_p2.prog
    for j in range(0, prog.t(6)):
        lhs, rhs = _direct_sides(roy212_p2, "square_step", (j,))
        assert lhs == rhs
    for k in range(1, 6):
        lhs, rhs = _direct_sides(roy212_p2, "det3_triple", (k,))
        assert lhs == rhs


def _implied_instances(bundle, i_max):
    """(name, index, lhs, rhs) of every instance, up to i_max, of the three
    families that `verify_identities` proves from `y_recurrence_block` instead
    of checking, each wedge formed directly."""
    prog, seq, ys, zs = bundle.prog, bundle.seq, bundle.ys, bundle.zs

    def wedge(i, j):
        return ys.at(i).wedge(ys.at(j))

    k_hi = prog.block_of(i_max)[0]
    out = []
    for k in range(1, k_hi + 1):
        base = wedge(prog.psi(prog.t(k)), prog.t(k))
        for l in range(prog.s(k + 1)):
            i = prog.t(k) + l
            if i + 1 <= i_max:
                out.append(("y_wedge_power", (k, l), wedge(i, i + 1),
                            seq.det(k) ** (l + 1) * base))
    for k in range(1, k_hi + 1):
        lead = prog.psi(prog.t(k + 1))
        for l in range(prog.s(k + 1) - 1):
            i = prog.t(k) + l
            if i + 1 <= i_max:
                out.append(("z_recurrence_block", (k, l), zs.num(i + 1),
                            seq.tr(k) * zs.num(i) - seq.det(k) * wedge(lead, prog.psi(i))))
    for k in range(2, k_hi + 1):
        i, j = prog.t(k + 1), prog.t(k) - 1
        if i <= i_max:
            di, dj = zs.den(i), zs.den(j)
            out.append(("z_recurrence_boundary", (k,), dj * zs.num(i),
                        di * (seq.tr(k - 1) * zs.num(j)
                              - dj * wedge(prog.psi(prog.t(k)), prog.psi(j)))))
    return out


PROOF_SEEDS = [bl_family(1, 2), roy_family(2, 1, 2), roy_family(2, 7, 8), bl_family(2, 3, 2)]
PROOF_PERIODS = [[1], [2], [1, 2], [3], [2, 1, 3]]


@pytest.mark.parametrize("period", PROOF_PERIODS, ids=str)
@pytest.mark.parametrize("seed", PROOF_SEEDS, ids=lambda s: f"{s.family}{s.params}")
def test_implied_families_hold(seed, period):
    prog = SturmianProgram([-1, 1], period)
    bundle = make_bundle(seed, prog)
    instances = _implied_instances(bundle, prog.t(10))
    assert [(name, idx) for name, idx, lhs, rhs in instances if lhs != rhs] == []
    names = {"y_wedge_power", "z_recurrence_boundary"} | (
        set() if prog.is_fibonacci else {"z_recurrence_block"})
    assert {name for name, *_ in instances} == names


def test_implied_failures_have_a_failing_recurrence():
    """On every perturbed-y case, each failing instance of an implied family
    has a failing `y_recurrence_block` instance among those its proof uses."""
    seen = set()
    for seed in (roy_family(2, 1, 2), bl_family(1, 2)):
        for period, i in sorted(PERTURBED_Y_FAILURES):
            prog = SturmianProgram([-1, 1], [period])
            bundle = make_bundle(seed, prog)
            m = bundle.ys.mat(i)
            bundle.ys._memo[i] = IntMat2(m.a, m.b + 1, m.c + 1, m.d)
            i_max = prog.t(9)
            bad = {f[1] for f in verify_identities(bundle, i_max).failures
                   if f[0] == "y_recurrence_block"}
            for name, idx, lhs, rhs in _implied_instances(bundle, i_max):
                if lhs == rhs:
                    continue
                seen.add(name)
                k = idx[0]
                if name == "y_wedge_power":
                    used = {(k, l) for l in range(idx[1] + 1)}
                elif name == "z_recurrence_block":
                    used = {idx}
                else:
                    used = {(k, l) for l in range(prog.s(k + 1))} | {(k - 1, prog.s(k) - 1)}
                assert used & bad, (seed.family, period, i, name, idx)
    assert seen == {"y_wedge_power", "z_recurrence_block", "z_recurrence_boundary"}


ROY_SEEDS = [(2, 1, 2), (3, 1, 3), (2, 7, 8), (5, 2, 4)]


def _custom_bundle(w0, w1):
    """A seed outside both families, with N solved from the symmetry conditions."""
    seed = MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="custom", params=())
    return make_bundle(seed, SturmianProgram.all_ones())


SMALL_MATRICES = st.builds(IntMat2, *[st.integers(-3, 3)] * 4)


@settings(max_examples=150, deadline=None)
@given(SMALL_MATRICES, SMALL_MATRICES)
def test_commutation_follows_from_admissibility(w0, w1):
    """w_{k-1} w_k N_{k+1} = w_k w_{k-1} N_k for k <= 6 on every admissible
    seed: why `verify_identities` does not check it."""
    try:
        seed = MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="custom", params=())
    except (DegenerateSeed, SingularN):
        assume(False)
    for period in ([1], [2], [1, 2]):
        seq = make_bundle(seed, SturmianProgram([-1, 1], period)).seq
        for k in range(1, 7):
            assert (seq.w(k - 1) @ seq.w(k) @ seed.N_parity(k + 1)
                    == seq.w(k) @ seq.w(k - 1) @ seed.N_parity(k)), (period, k)


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("abc", ROY_SEEDS)
def test_content_equals_full_gcd(abc, period):
    ys = make_bundle(roy_family(*abc), SturmianProgram([-1, 1], [period])).ys
    for i in range(-2, 21):
        assert ys.content(i) == math.gcd(*ys.at(i).as_tuple()), i


def test_content_full_gcd_when_the_quick_test_fails():
    bundle = make_bundle(roy_family(2, 1, 2), SturmianProgram.all_ones())
    seed = bundle.seed
    assert abs(seed.w0.det() * seed.w1.det() * seed.det_N) == 8
    bundle.ys._memo[5] = 6 * bundle.ys.mat(5)
    assert bundle.ys.content(5) == 6
    # det w0 det w1 det N = 2 here and y_i has content 2, 4, 8, 16, ...
    custom = _custom_bundle(IntMat2(0, 1, 1, 0), IntMat2(0, 2, 1, 3))
    contents = [custom.ys.content(i) for i in range(-2, 12)]
    assert contents == [math.gcd(*custom.ys.at(i).as_tuple()) for i in range(-2, 12)]
    assert contents[:6] == [1, 2, 2, 4, 8, 16]


def _ladder_coprime_direct(bundle, i_max):
    """(hypothesis, instance count, failing (k, l) with their gcd), from the
    determinant of each ladder matrix itself; the rungs of k = 1 are the
    hypothesis, so the instances start at k = 2."""
    seq, prog = bundle.seq, bundle.prog
    k_hi = prog.block_of(i_max)[0]

    def g(k, l):
        m = seq.ladder(k, l)
        return math.gcd(m.trace(), m.det())

    hyp = math.gcd(seq.tr(1), seq.det(1)) == 1 and all(
        g(1, l) == 1 for l in range(prog.s(2) + 2))
    pairs = [(k, l) for k in range(2, k_hi + 1) for l in range(prog.s(k + 1) + 2)]
    if not hyp:
        return False, 0, []
    return True, len(pairs), [((k, l), g(k, l)) for k, l in pairs if g(k, l) != 1]


@pytest.mark.parametrize("period, rungs", [(1, 27), (2, 36)])
@pytest.mark.parametrize("abc", ROY_SEEDS)
def test_ladder_coprime_unchanged(abc, period, rungs):
    """`rungs` counts the ladder rungs (k, l), 1 <= k <= k_hi, l < s_{k+1} + 2,
    up to t_9; the s_2 + 2 rungs of k = 1 are the hypothesis, and
    `ladder_coprime` checks the other 24 (period 1) or 32 (period 2)."""
    bundle = make_bundle(roy_family(*abc), SturmianProgram([-1, 1], [period]))
    i_max = bundle.prog.t(9)
    rep = verify_identities(bundle, i_max)
    count = {1: 24, 2: 32}[period]
    assert count == rungs - (bundle.prog.s(2) + 2)
    assert rep.checks["coprimality_hypothesis"] == 1
    assert rep.checks["ladder_coprime"] == count
    assert _ladder_coprime_direct(bundle, i_max) == (True, count, [])
    assert not [f for f in rep.failures if f[0] == "ladder_coprime"]


@pytest.mark.parametrize("w1, hyp", [
    (IntMat2(0, 2, 1, 3), True),    # one ladder trace shares the prime 3 with det w1
    # tr w1 is coprime to det w1, but the rungs w1 w0 and w1^2 w0 are not, so
    # the hypothesis fails and there is no ladder_coprime instance
    (IntMat2(0, 2, 2, 1), False),
])
def test_ladder_coprime_on_the_full_gcd_path(w1, hyp):
    bundle = _custom_bundle(IntMat2(0, 1, 1, 0), w1)
    i_max = bundle.prog.t(6)
    rep = verify_identities(bundle, i_max)
    got_hyp, count, bad = _ladder_coprime_direct(bundle, i_max)
    assert got_hyp == hyp == ("ladder_coprime" in rep.checks)
    assert rep.checks.get("ladder_coprime", 0) == count
    assert [(f[1], f[2]) for f in rep.failures if f[0] == "ladder_coprime"] == bad
