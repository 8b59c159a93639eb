import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmlab.approx import (
    PROVED, BadIndex, ContentsReport, FibonacciOnly, contents_report, gray_fan, make_bundle,
    verify_identities,
)
from sturmlab.exactlin import J, IntMat2, SymVec, ZeroObject, det3
from sturmlab.matseq import (
    DegenerateSeed, MatrixSeed, SingularN, bl_family, roy_family, solve_admissibility,
)
from sturmlab.sturm import SturmianProgram

EXPECTED_CHECKS = {"ladder_coprime", "coprimality_hypothesis"}


class WedgeZ:
    """The reference z: the numerator num(j) = y_{t_k - 1} ^ y_j of z_j over
    den(j) = det w_k, for j = t_k + l >= -1 (k = 0 gives only j = t_0 = -1),
    with the wedge formed from the y matrices and det w_k as ad - bc of w_k.
    `_memo` holds the numerators, so a test can corrupt one."""

    def __init__(self, bundle):
        self.bundle = bundle
        self._memo = {}

    def _block(self, j):
        if j < -1:
            raise BadIndex(f"z_j defined for j >= -1, got {j}")
        return 0 if j == -1 else self.bundle.prog.block_of(j)[0]

    def num(self, j):
        if j not in self._memo:
            ys = self.bundle.ys
            self._memo[j] = ys.at(self.bundle.prog.t(self._block(j)) - 1).wedge(ys.at(j))
        return self._memo[j]

    def den(self, j):
        return self.bundle.seq.w(self._block(j)).det()

    def integerized(self, j):
        """det(w_2) num(j) / den(j) by `divmod`; BadIndex when not integral."""
        v, d = self.num(j) * self.bundle.seq.w(2).det(), self.den(j)
        (q0, r0), (q1, r1), (q2, r2) = (divmod(x, d) for x in v.as_tuple())
        if r0 or r1 or r2:
            raise BadIndex(f"det(w_2) z_{j} is not integral")
        return SymVec(q0, q1, q2)


def _contents_direct(bundle, i_max, zs=None):
    """`contents_report` formed directly: each y content as the gcd of y_i's
    entries, and each det(w_2) z_j of the wedge reference `zs` (a new
    `WedgeZ` by default) by `divmod`, its content checked against the bound."""
    zs = zs or WedgeZ(bundle)
    seed = bundle.seed
    y_contents = {i: math.gcd(*bundle.ys.at(i).as_tuple()) for i in range(-2, i_max + 1)}
    bound = bundle.seq.w(2).det() ** 2 * seed.det_N ** 2 * abs(seed.tr_JN)
    z_integral = z_div = True
    for j in range(0, i_max + 1):
        try:
            v = zs.integerized(j)
        except BadIndex:
            z_integral = False
            continue
        z_div = z_div and bound % v.content() == 0
    return ContentsReport(y_contents=y_contents,
                          y_divides_detN=all(seed.det_N % c == 0 for c in y_contents.values()),
                          z_integral=z_integral, z_divides_bound=z_div,
                          content_bound=abs(bound), i_max=i_max)


def test_identity_suite_roy(roy212):
    rep = verify_identities(roy212, roy212.prog.t(10))
    assert rep.ok, rep.failures[:3]
    assert set(rep.checks) == EXPECTED_CHECKS
    assert all(n > 0 for n in rep.checks.values())
    assert "ok" in rep.summary()


@pytest.mark.parametrize("bump", [IntMat2(1, 0, 0, 0), IntMat2(0, 1, 1, 0), IntMat2(0, 0, 0, -1)])
def test_corrupted_y_fails(prog_twos, bump):
    """Replacing any one y_i of a block by a nearby symmetric matrix is caught
    by both the test-side det3 triples and z wedge identity, at the block start
    and inside the block, and makes some det(w_2) z_j of the wedge reference
    non-integral."""
    k = 3
    prog = prog_twos
    block = range(prog.t(k), prog.t(k + 1))
    assert len(block) > 1
    for i in block:
        bundle = make_bundle(roy_family(2, 1, 2), prog)
        bundle.ys._memo[i] = bundle.ys.mat(i) + bump
        assert bundle.ys.mat(i).is_symmetric()
        instances = _implied_instances(bundle, prog.t(k + 2))
        assert {"det3_triple", "z_wedge"} <= {name for name, idx, lhs, rhs in instances
                                               if lhs != rhs}, i
        assert not _contents_direct(bundle, prog.t(k + 2)).z_integral, i


@pytest.mark.parametrize("bundle_name, failing", [
    ("roy212", {"z_wedge", "z_recurrence_boundary"}),
    ("roy212_p2", {"z_wedge", "z_recurrence_block", "z_recurrence_boundary"}),
])
def test_corrupted_z_fails(request, bundle_name, failing):
    """Adding (1, 0, 0) to one z numerator of the wedge reference, at a block
    start, is caught by the test-side z wedge identity and z recurrences, by the
    integrality of det(w_2) z_j, and on Fibonacci by the test-side gray fan
    wedge; adding it to the same z of `ZSeq` is caught by the reference."""
    prog = request.getfixturevalue(bundle_name).prog
    bundle = make_bundle(roy_family(2, 1, 2), prog)
    j = prog.t(6 if prog.is_fibonacci else 4)
    zs = WedgeZ(bundle)
    zs._memo[j] = zs.num(j) + SymVec(1, 0, 0)
    i_max = prog.t(8 if prog.is_fibonacci else 6)
    instances = _implied_instances(bundle, i_max, zs)
    assert {name for name, idx, lhs, rhs in instances if lhs != rhs} == failing
    assert not _contents_direct(bundle, i_max, zs).z_integral
    if prog.is_fibonacci:
        assert not _fan_statements(bundle, gray_fan(bundle, j - 1), zs)["wedge"]
    bundle.zs._memo[j] = bundle.zs.z(j) + SymVec(1, 0, 0)
    assert _linear_z_mismatches(bundle, i_max) == [j]


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
        assert v == WedgeZ(roy212).integerized(j)
    assert WedgeZ(roy212).den(-1) == roy212.seq.det(0)
    with pytest.raises(BadIndex):
        WedgeZ(roy212).num(-2)
    with pytest.raises(BadIndex):
        roy212.zs.z(-1)


def test_z_orthogonal_to_leading_y(bl12):
    # z_j is (1/det w_k) y_{psi(t_{k+1})} ^ y_j, so it is orthogonal to both
    prog = bl12.prog
    for j in range(0, 12):
        k, _ = prog.block_of(j)
        lead = bl12.ys.at(prog.psi(prog.t(k + 1)))
        z = bl12.zs.z(j)
        assert WedgeZ(bl12).den(j) == bl12.seq.det(k)
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
    lhs = Fraction(abs(zs.z(i).dot(ys.at(i + 1))))
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


def _fan_statements(bundle, fan, zs=None):
    """The six statements that `gray_fan` proves instead of checking, each
    formed from fan.points and fan.quotients: name -> whether it holds.  The
    convergents p_m / q_m (m = -1 .. r) are rebuilt from the quotients, and the
    wedge is compared with the z numerator num(i + 1) of the wedge reference
    `zs` (a new `WedgeZ` by default)."""
    zs = zs or WedgeZ(bundle)
    seq, ys, i = bundle.seq, bundle.ys, fan.i
    x, a = fan.points, fan.quotients
    t, d, d_i = seq.tr(i + 1), seq.det(i + 1), seq.det(i)
    yi, yim2, yi1 = ys.at(i), ys.at(i - 2), ys.at(i + 1)
    conv = [(0, 1), (1, 0)]
    for a_m in a:
        conv.append((a_m * conv[-1][0] + conv[-2][0], a_m * conv[-1][1] + conv[-2][1]))
    conv = conv[1:]
    c = [v.content() for v in x]
    pairs = range(len(x) - 1)
    z_next, z_den = d_i * zs.num(i + 1), zs.den(i + 1)
    return {
        "endpoints": x[0] == yi and (math.gcd(t, d) != 1 or x[-1] == yi1),
        "recurrence": len(x) == len(a) + 1 and x[1] == a[0] * x[0] - yim2
                      and all(x[m] == a[m - 1] * x[m - 1] + x[m - 2] for m in range(2, len(x))),
        "wedge": all(z_den * x[m].wedge(x[m + 1]) in (z_next, -z_next) for m in pairs),
        # c_m c_{m+1} divides content(d_i z_{i+1}) = content(d_i num(i + 1)) / |den(i + 1)|
        "content_pairs_relaxed": all(z_next.content() % (c[m] * c[m + 1] * abs(z_den)) == 0
                                     for m in pairs),
        "content_gcd": all(ys.content(i) % math.gcd(c[m], c[m + 1]) == 0 for m in pairs),
        "decomposition": all(d * d_i * xm == d_i * (d * p - t * q) * yi + d_i * q * yi1
                             for (p, q), xm in zip(conv, x)),
    }


def test_gray_fan_endpoints_and_wedge(roy212):
    for i in (3, 4, 5, 6):
        fan = gray_fan(roy212, i)
        assert [name for name, ok in _fan_statements(roy212, fan).items() if not ok] == [], i
        assert len(fan.points) == len(fan.contents) >= 2
        assert fan.contents == [v.content() for v in fan.points]


@pytest.mark.parametrize("m", [1, 3])
def test_corrupted_fan_point_fails(roy212, m):
    """Adding (1, 0, 0) to one fan point breaks the test-side recurrence,
    decomposition and wedge, so `_fan_statements` can fail."""
    fan = gray_fan(roy212, 5)
    fan.points[m] = fan.points[m] + SymVec(1, 0, 0)
    failed = {name for name, ok in _fan_statements(roy212, fan).items() if not ok}
    assert {"recurrence", "decomposition", "wedge"} <= failed


def test_gray_fan_known_counterexample(roy212):
    # c_m c_{m+1} | d_i fails at i = 3 (content 16 vs d_3 = 8) while the
    # relaxed divisibility through content(d_i z_{i+1}) still holds
    fan = gray_fan(roy212, 3)
    assert not fan.content_pairs_ok
    assert _fan_statements(roy212, fan)["content_pairs_relaxed"]


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


# (period, i) -> the (name, index) of every failing det3 triple and z wedge, in
# order, when y_i is replaced by IntMat2(a, b + 1, c + 1, d), on instances to t_9;
# recorded on the verifier that formed every product, wedge and gcd directly,
# and the same for roy(2,1,2) and bl(1,2)
PERTURBED_Y_FAILURES = {
    (1, 3): [
             ("det3_triple", [(3,), (4,), (5,)]),
             ("z_wedge", [(3, 0), (4, 0), (5, 0)]),
    ],
    (1, 6): [
             ("det3_triple", [(6,), (7,), (8,)]),
             ("z_wedge", [(6, 0), (7, 0), (8, 0)]),
    ],
    (2, 3): [
             ("det3_triple", [(2,), (3,)]),
             ("z_wedge", [(2, 0), (2, 1), (3, 0), (3, 1)]),
    ],
    (2, 6): [
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
    failing = [(name, idx) for name, idx, lhs, rhs in _implied_instances(bundle, prog.t(9))
               if name in ("det3_triple", "z_wedge") and lhs != rhs]
    assert failing == [
        (name, idx) for name, idxs in PERTURBED_Y_FAILURES[period, i] for idx in idxs]


def test_direct_sides_match_unperturbed(roy212_p2):
    # on correct data the direct formulas give equal sides for every index
    prog = roy212_p2.prog
    for j in range(0, prog.t(6)):
        lhs, rhs = _direct_sides(roy212_p2, "square_step", (j,))
        assert lhs == rhs
    for k in range(1, 6):
        lhs, rhs = _direct_sides(roy212_p2, "det3_triple", (k,))
        assert lhs == rhs


def _implied_instances(bundle, i_max, zs=None):
    """(name, index, lhs, rhs) of every instance, up to i_max, of the nine
    families of `PROVED`, which `verify_identities` proves instead of checking:
    commutation with w_{k-1} w_k formed in full, the trace recurrence of the
    power ladder, the y recurrence, the square step and the det3 triples with
    each product formed in full, the three families that follow from the y
    recurrence with each wedge formed directly, and the z wedge identity on the
    z numerators, multiplied through by det w_{k+1} det w_k.  The z numerators
    are those of the wedge reference `zs`, a new `WedgeZ` by default."""
    zs = zs or WedgeZ(bundle)
    prog, seq, ys, seed = bundle.prog, bundle.seq, bundle.ys, bundle.seed

    def wedge(i, j):
        return ys.at(i).wedge(ys.at(j))

    k_hi = prog.block_of(i_max)[0]
    out = [("commutation", (k,), seq.w(k - 1) @ seq.w(k) @ seed.N_parity(k + 1),
            seq.ladder(k, 1) @ seed.N_parity(k)) for k in range(1, k_hi + 1)]
    for k in range(1, k_hi + 1):
        traces = [seq.ladder(k, l).trace() for l in range(prog.s(k + 1) + 2)]
        out += [("ladder_trace_recurrence", (k, l), traces[l],
                 seq.tr(k) * traces[l - 1] - seq.det(k) * traces[l - 2])
                for l in range(2, prog.s(k + 1) + 2)]
    for k in range(1, k_hi + 1):
        for l in range(prog.s(k + 1)):
            i = prog.t(k) + l
            if i + 1 <= i_max:
                out.append(("y_recurrence_block", (k, l), ys.at(i + 1),
                            seq.tr(k) * ys.at(i) - seq.det(k) * ys.at(prog.psi(i))))
    out += [("square_step", (j,), *_direct_sides(bundle, "square_step", (j,)))
            for j in range(0, i_max)]
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
    out += [("det3_triple", (k,), *_direct_sides(bundle, "det3_triple", (k,)))
            for k in range(0, k_hi + 1) if prog.t(k) + 1 <= i_max]
    for k in range(0, k_hi + 1):
        j = prog.t(k + 1)
        c = seed.det_N * seed.N_parity(k + 1).tr_J() * seq.det(k + 1) * seq.det(k)
        for l in range(prog.s(k + 1)):
            i = prog.t(k) + l
            if i <= i_max and j <= i_max + 1:
                out.append(("z_wedge", (k, l), zs.num(j).wedge(zs.num(i)), c * ys.at(i)))
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
    names = set(PROVED) - ({"z_recurrence_block"} if prog.is_fibonacci else set())
    assert {name for name, *_ in instances} == names


@pytest.mark.parametrize("period", PROOF_PERIODS, ids=str)
@pytest.mark.parametrize("seed", PROOF_SEEDS, ids=lambda s: f"{s.family}{s.params}")
def test_ladder_premises_hold(seed, period):
    """(A) y_{i+1} = w_k y_i and (B) y_i = w_k y_psi(i) for i = t_k + l, and
    (C) y_{t_k - 1} adj(N_{k+1}) y_psi(t_k) = det N y_{t_k}, 1 <= k <= 7,
    0 <= l < s_{k+1}: the matrix identities from which `verify_identities`
    proves the y recurrence, the square step, the det3 triples and the z wedge
    identity."""
    prog = SturmianProgram([-1, 1], period)
    bundle = make_bundle(seed, prog)
    seq, ys = bundle.seq, bundle.ys
    for k in range(1, 8):
        for l in range(prog.s(k + 1)):
            i = prog.t(k) + l
            assert ys.mat(i + 1) == seq.w(k) @ ys.mat(i), ("A", k, l)
            assert ys.mat(i) == seq.w(k) @ ys.mat(prog.psi(i)), ("B", k, l)
        n = seed.N_parity(k + 1)
        adj_n = IntMat2(n.d, -n.b, -n.c, n.a)
        t = prog.t(k)
        assert (ys.mat(t - 1) @ adj_n @ ys.mat(prog.psi(t))
                == seed.det_N * ys.mat(t)), ("C", k)


def _linear_z_mismatches(bundle, i_max):
    """The j <= i_max at which det(w_k) z_j of `ZSeq` is not the numerator
    num(j) of the wedge reference."""
    ref = WedgeZ(bundle)
    return [j for j in range(0, i_max + 1) if ref.den(j) * bundle.zs.z(j) != ref.num(j)]


@pytest.mark.parametrize("period", PROOF_PERIODS, ids=str)
@pytest.mark.parametrize("seed", PROOF_SEEDS, ids=lambda s: f"{s.family}{s.params}")
def test_linear_z_equals_the_wedge(seed, period):
    """z_j, the linear image of y_psi(j) that `ZSeq` forms, is
    (y_{t_k - 1} ^ y_j) / det w_k, j <= t_10."""
    bundle = make_bundle(seed, SturmianProgram([-1, 1], period))
    assert _linear_z_mismatches(bundle, bundle.prog.t(10)) == []


def _recorded_calls(monkeypatch, obj, name):
    """The arguments of every call of the method `obj.name` from now on,
    including the calls `obj` makes of it itself."""
    calls = []
    method = getattr(obj, name)

    def recorded(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(obj, name, recorded)
    return calls


def _scaled_at(monkeypatch, obj, name, args, scale):
    """Make the method `obj.name` return scale(value) at `args`."""
    method = getattr(obj, name)
    monkeypatch.setattr(obj, name, lambda *a: scale(method(*a)) if a == args else method(*a))


@pytest.mark.parametrize("period", PROOF_PERIODS[:3], ids=str)
@pytest.mark.parametrize("seed", PROOF_SEEDS, ids=lambda s: f"{s.family}{s.params}")
def test_det_recurrence_and_residue_ladder(seed, period):
    """det w_k by d_{k+1} = d_k^{s_{k+1}} d_{k-1} is ad - bc of w_k, and the
    residue ladder is the power ladder mod |det w0 det w1 det N|."""
    seq = make_bundle(seed, SturmianProgram([-1, 1], period)).seq
    assert seq.modulus == abs(seed.w0.det() * seed.w1.det() * seed.det_N)
    for k in range(0, 11):
        assert seq.det(k) == seq.w(k).det(), k
        assert seq.residues.w(k) == seq.w(k) % seq.modulus, k
    for k in range(1, 10):
        for l in range(seq.prog.s(k + 1) + 2):
            assert seq.residues.ladder(k, l) == seq.ladder(k, l) % seq.modulus, (k, l)


@pytest.mark.parametrize("seed", [bl_family(1, 2), roy_family(2, 1, 2)], ids=["bl12", "roy212"])
def test_deep_reports_form_no_full_size_matrix(monkeypatch, seed):
    """At depth 40, `verify_identities` and `contents_report` read residues and
    proved forms only: no y, z, w_k past w_1 or ladder rung is formed in full."""
    bundle = make_bundle(seed, SturmianProgram.all_ones())
    # w_k for k >= 2 is built as a rung, so recording the exact rungs covers it
    formed = [_recorded_calls(monkeypatch, obj, name)
              for obj, name in ((bundle.ys, "mat"), (bundle.zs, "z"), (bundle.seq, "ladder"))]
    i_max = bundle.prog.t(40)
    rep = verify_identities(bundle, i_max)
    assert rep.ok and rep.checks["ladder_coprime"] == 117
    crep = contents_report(bundle, i_max)
    assert crep.y_divides_detN and crep.z_integral and crep.z_divides_bound
    assert set(crep.y_contents.values()) == {1}
    assert formed == [[], [], []]


SMALL_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
SYMMETRIC = st.builds(lambda a, b, d: IntMat2(a, b, b, d), *[SMALL_FRACTIONS] * 3)


def _inverse(m):
    return IntMat2(m.d, -m.b, -m.c, m.a) * Fraction(1, m.det())


@settings(max_examples=50, deadline=None)
@given(SYMMETRIC, SYMMETRIC, SYMMETRIC)
def test_det3_lemma(x, y, z):
    """For symmetric X, Y and Z = Y Q X with Z symmetric,
    det3(Y, Z, X) = Tr(J Y J Z J X) = -tr_J(Q) det X det Y, in exact rationals
    (`IntMat2` and `SymVec` hold Fractions here): the lemma from which
    `verify_identities` proves the det3 triples and the z wedge identity."""
    assume(x.det() != 0 and y.det() != 0)
    q = _inverse(y) @ z @ _inverse(x)
    assert y @ q @ x == z
    d = det3(y.sym_vec(), z.sym_vec(), x.sym_vec())
    assert d == (J @ y @ J @ z @ J @ x).trace()
    assert d == -q.tr_J() * x.det() * y.det()


def test_implied_failures_have_a_failing_recurrence():
    """On every perturbed-y case, each failing instance of a family that
    follows from the y recurrence has a failing y recurrence instance among
    those its proof uses, both formed by `_implied_instances`."""
    seen = set()
    for seed in (roy_family(2, 1, 2), bl_family(1, 2)):
        for period, i in sorted(PERTURBED_Y_FAILURES):
            prog = SturmianProgram([-1, 1], [period])
            bundle = make_bundle(seed, prog)
            m = bundle.ys.mat(i)
            bundle.ys._memo[i] = IntMat2(m.a, m.b + 1, m.c + 1, m.d)
            instances = _implied_instances(bundle, prog.t(9))
            bad = {idx for name, idx, lhs, rhs in instances
                   if name == "y_recurrence_block" and lhs != rhs}
            for name, idx, lhs, rhs in instances:
                if lhs == rhs or name not in (
                        "y_wedge_power", "z_recurrence_block", "z_recurrence_boundary"):
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


def _outcome(f, *args):
    """f(*args), or the ZeroObject it raises."""
    try:
        return f(*args)
    except ZeroObject as e:
        return repr(e)


@settings(max_examples=100, deadline=None)
@given(SMALL_MATRICES, SMALL_MATRICES)
def test_linear_z_and_contents_on_admissible_seeds(w0, w1):
    """On random admissible seeds, z_j of `ZSeq` is the wedge reference's
    num(j) / den(j), and `contents_report` equals `_contents_direct` (or both
    raise on a zero z), on three programs to t_6."""
    try:
        seed = MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="custom", params=())
    except (DegenerateSeed, SingularN):
        assume(False)
    for period in ([1], [2], [1, 2]):
        bundle = make_bundle(seed, SturmianProgram([-1, 1], period))
        i_max = bundle.prog.t(6)
        assert _linear_z_mismatches(bundle, i_max) == [], period
        assert (_outcome(contents_report, bundle, i_max)
                == _outcome(_contents_direct, bundle, i_max)), period


def _contents_bundles():
    """(name, bundle, whether `contents_report` forms the z) on each path."""
    for abc in ROY_SEEDS:
        for period in (1, 2):
            yield f"roy{abc}/{period}", make_bundle(
                roy_family(*abc), SturmianProgram([-1, 1], [period])), False
    yield "bl(1,2)", make_bundle(bl_family(1, 2), SturmianProgram.all_ones()), False
    # y contents 2, 4, 8, 16: each is formed in full, and divides det N = 16
    yield "custom w1=[[0,2],[1,3]]", _custom_bundle(IntMat2(0, 1, 1, 0), IntMat2(0, 2, 1, 3)), False
    # Tr(JN) = 0
    yield "roy(2,1,1)", make_bundle(roy_family(2, 1, 1), SturmianProgram.all_ones()), True
    # y contents do not divide det N = -2
    yield "custom w1=[[0,1],[2,0]]", _custom_bundle(IntMat2(0, 1, 1, 0), IntMat2(0, 1, 2, 0)), True


def test_contents_report_matches_direct():
    """`contents_report` equals its direct computation (full y contents,
    wedges and `divmod`) on the proved path and on the path that forms z."""
    for name, bundle, forms_z in _contents_bundles():
        i_max = bundle.prog.t(9)
        rep = contents_report(bundle, i_max)
        assert rep == _contents_direct(bundle, i_max), name
        assert bool(bundle.zs._memo) == forms_z, name


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("abc", ROY_SEEDS)
def test_content_equals_full_gcd(abc, period):
    ys = make_bundle(roy_family(*abc), SturmianProgram([-1, 1], [period])).ys
    for i in range(-2, 21):
        assert ys.content(i) == math.gcd(*ys.at(i).as_tuple()), i


def test_content_full_gcd_when_the_quick_test_fails(monkeypatch):
    bundle = make_bundle(roy_family(2, 1, 2), SturmianProgram.all_ones())
    seed, seq = bundle.seed, bundle.seq
    assert abs(seed.w0.det() * seed.w1.det() * seed.det_N) == 8 == seq.modulus
    # y_5 and the residue of the rung it is built from, both times 6
    k, l = bundle.prog.block_of(5)
    _scaled_at(monkeypatch, bundle.ys, "mat", (5,), lambda m: 6 * m)
    _scaled_at(monkeypatch, seq.residues, "ladder", (k, l + 1), lambda m: 6 * m % seq.modulus)
    assert bundle.ys.content(5) == 6
    # |det w0 det w1 det N| = 32 here and y_i has content 1, 2, 2, 4, 8, 16, 16, ...
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
    """`ladder_coprime` counts and fails as the direct gcds do, and the summary
    says when the hypothesis does not hold and `ladder_coprime` was not checked."""
    bundle = _custom_bundle(IntMat2(0, 1, 1, 0), w1)
    i_max = bundle.prog.t(6)
    rep = verify_identities(bundle, i_max)
    got_hyp, count, bad = _ladder_coprime_direct(bundle, i_max)
    assert got_hyp == hyp == ("ladder_coprime" in rep.checks) == rep.hypothesis_holds
    assert rep.checks.get("ladder_coprime", 0) == count
    assert [(f[1], f[2]) for f in rep.failures if f[0] == "ladder_coprime"] == bad
    status = "ok" if hyp else "does not hold; ladder_coprime not checked"
    assert rep.summary().splitlines()[0].endswith(" 1 instances  " + status)
