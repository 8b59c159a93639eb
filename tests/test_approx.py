from fractions import Fraction

import pytest

from sturmlab.approx import (
    BadIndex, FibonacciOnly, contents_report, gray_fan, make_bundle,
    verify_identities,
)
from sturmlab.exactlin import IntMat2, SymVec, det3
from sturmlab.matseq import bl_family, roy_family
from sturmlab.sturm import SturmianProgram

EXPECTED_CHECKS = {
    "square_step", "commutation", "trace_recurrence", "y_recurrence_boundary",
    "y_recurrence_block", "y_wedge_power", "z_recurrence_boundary",
    "z_wedge", "det3_triple", "ladder_coprime", "coprimality_hypothesis",
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
    ("roy212", {"z_recurrence_boundary", "z_wedge"}),
    ("roy212_p2", {"z_recurrence_block", "z_recurrence_boundary", "z_wedge"}),
])
def test_corrupted_z_fails(request, bundle_name, failing):
    """Adding (1, 0, 0) to one z numerator, at a block start, is caught by the
    z identities (and on Fibonacci by the gray fan's wedge check)."""
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
