import dataclasses
import math

import mpmath
import pytest

from sturmlab.exactlin import IntMat2
from sturmlab.matseq import (
    BadRoyTriple, DegenerateSeed, HatW, MatrixSequence,
    DELTA_BITS, admissibility_checks, bl_family, check_mult_growth, delta_estimate,
    lemma_shape_ok, resolve_delta, roy_family, solve_admissibility,
)
from sturmlab.sturm import SturmianProgram


def _seq(seed, prog=None):
    return MatrixSequence(seed, prog or SturmianProgram.all_ones())


def test_roy_seed_shape():
    seed = roy_family(2, 1, 2)
    assert seed.family == "roy" and seed.params == (2, 1, 2)
    assert all(admissibility_checks(seed.w0, seed.w1, seed.N).values())
    assert seed.N.det() != 0
    assert abs(seed.w0.det()) == 2 and abs(seed.w1.det()) == 2
    assert seed.tr_JN == 2 * (1 - 2)
    assert seed.tr_JN != 0


def test_roy_rejects_bad_triples():
    with pytest.raises(BadRoyTriple):
        roy_family(0, 1, 2)
    with pytest.raises(BadRoyTriple):
        roy_family(2, 2, 1)        # needs c >= b
    # b = c is allowed but gives Tr(JN) = 0 (not proper-capable)
    seed = roy_family(2, 2, 2)
    assert seed.tr_JN == 0


def test_bl_rejects_equal_letters():
    from sturmlab.matseq import EqualLetters
    with pytest.raises(EqualLetters):
        bl_family(2, 2)


def test_bl_seed_shape():
    seed = bl_family(1, 2)
    assert seed.family == "bl" and seed.params[:2] == (1, 2)
    assert abs(seed.w0.det()) == 1 and abs(seed.w1.det()) == 1
    assert all(admissibility_checks(seed.w0, seed.w1, seed.N).values())
    assert seed.N.det() != 0
    assert seed.tr_JN != 0
    assert _seq(seed).is_unimodular()


def test_admissibility_solver():
    seed = roy_family(3, 1, 3)
    n = solve_admissibility(seed.w0, seed.w1)
    assert all(admissibility_checks(seed.w0, seed.w1, n).values())


def test_degenerate_seed_rejected():
    from sturmlab.matseq import MatrixSeed
    with pytest.raises(DegenerateSeed):
        MatrixSeed(IntMat2(1, 0, 0, 0), IntMat2(1, 0, 0, 1),
                   IntMat2(0, 1, 1, 0), family="test", params=())


@pytest.mark.parametrize("seed_fn", [
    lambda: roy_family(2, 1, 2),
    lambda: roy_family(3, 1, 3),
    lambda: bl_family(1, 2),
])
@pytest.mark.parametrize("prog", [
    SturmianProgram.all_ones(),
    SturmianProgram([-1, 1], [2]),
])
def test_recurrence(seed_fn, prog):
    seq = MatrixSequence(seed_fn(), prog)
    for k in range(1, 10):
        s = prog.s(k + 1)
        assert seq.w(k + 1) == seq.w(k) ** s @ seq.w(k - 1)
        # determinant recurrence follows: det w_{k+1} = (det w_k)^s det w_{k-1}
        assert seq.det(k + 1) == seq.det(k) ** s * seq.det(k - 1)


def test_ladder_matches_powers():
    seq = _seq(roy_family(2, 1, 2), SturmianProgram([-1, 1], [3]))
    for k in range(1, 6):
        for l in range(0, seq.prog.s(k + 1) + 2):
            assert seq.ladder(k, l) == seq.w(k) ** l @ seq.w(k - 1)


def test_log_norm():
    seq = _seq(bl_family(1, 2))
    with mpmath.workprec(128):
        for k in (3, 8, 12):
            assert abs(seq.log_norm(k, 128) - mpmath.log(seq.norm(k))) < 1e-30


def test_mult_growth():
    for seed in (roy_family(2, 1, 2), roy_family(3, 1, 3), bl_family(1, 2)):
        rep = check_mult_growth(_seq(seed), 10)
        num, den = rep.ratio_min             # ||w_k^l w_{k-1}|| >= ||w_k|| ||w_k^{l-1} w_{k-1}||
        assert num >= den
    # the entrywise shape lemma is a roy feature
    for seed in (roy_family(2, 1, 2), roy_family(3, 1, 3)):
        assert check_mult_growth(_seq(seed), 8).shape_ok
        assert lemma_shape_ok(seed.w0) and lemma_shape_ok(seed.w1)
    assert not check_mult_growth(_seq(bl_family(1, 2)), 8).shape_ok


def test_delta_exact_zero_for_unimodular():
    rep = delta_estimate(_seq(bl_family(1, 2)), 14)
    assert rep.exact_zero
    assert rep.bracket is None
    # |det w_k| = 1 so every numeric estimate is exactly 0
    assert all(v == 0 for v in rep.deltas.values())


def test_delta_bracket_roy_212():
    seq = _seq(roy_family(2, 1, 2))
    rep = delta_estimate(seq, 16)
    assert not rep.exact_zero
    lo, hi = rep.bracket
    with mpmath.workprec(128):
        assert abs(lo - mpmath.log(2) / mpmath.log(12)) < 1e-30
        assert abs(hi - mpmath.log(2) / mpmath.log(4)) < 1e-30
    # certified two-sided bound: (2 ||w_k||)^lo <= |det w_k| <= ||w_k||^hi
    for k in sorted(rep.deltas):
        n, d = seq.norm(k), abs(seq.det(k))
        assert mpmath.mpf(2 * n) ** lo <= d <= mpmath.mpf(n) ** hi
        assert lo <= rep.deltas[k] <= hi
    # late increments are tiny (the estimate has settled)
    last = max(rep.increments)
    assert rep.increments[last] < 1e-3


@pytest.mark.parametrize("abc", [(2, 1, 2), (3, 1, 3), (2, 1, 3), (5, 2, 4)])
@pytest.mark.parametrize("period", [1, 2])
def test_delta_bracket_exact_integers(abc, period):
    # |det w_k| = a^{f_k} with f_0 = f_1 = 1, f_{k+1} = s_{k+1} f_k + f_{k-1}, so
    # the bracket's two sides are (a(b+1))^{f_k} <= ||w_k|| <= (2a(c+1))^{f_k} / 2
    a, b, c = abc
    prog = SturmianProgram([-1, 1], [period])
    seq = _seq(roy_family(a, b, c), prog)
    f = [1, 1]
    for k in range(1, 12):
        f.append(prog.s(k + 1) * f[k] + f[k - 1])
    for k in range(13):
        n = seq.norm(k)
        assert abs(seq.det(k)) == a ** f[k]
        assert (a * (b + 1)) ** f[k] <= n
        assert 2 * n <= (2 * a * (c + 1)) ** f[k]


def test_delta_bracket_needs_its_integer_form():
    # roy(2,1,2) matrices labelled (2,3,2): (a(b+1))^{f_0} = 8 > ||w_0||, so the
    # bracket for those parameters is not proved and none is returned
    seed = dataclasses.replace(roy_family(2, 1, 2), params=(2, 3, 2))
    rep = delta_estimate(_seq(seed), 12)
    assert rep.bracket is None
    assert delta_estimate(_seq(roy_family(2, 1, 2)), 12).bracket is not None


def test_delta_settling():
    rep = delta_estimate(_seq(roy_family(2, 1, 2)), 18)
    # the tail oscillates slightly but contracts; late values agree to ~1e-4
    late = [rep.deltas[k] for k in sorted(rep.deltas)[-6:]]
    assert max(late) - min(late) < 1e-3
    assert abs(late[-1] - mpmath.mpf("0.394")) < 5e-4


@pytest.mark.parametrize("abc, period, k_max", [
    ((2, 1, 2), 1, 18), ((3, 1, 3), 1, 18), ((2, 2, 3), 1, 18), ((2, 3, 4), 1, 18),
    ((2, 1, 2), 2, 10),
])
def test_resolve_delta_bit_budget(abc, period, k_max):
    # delta_hat is delta_{k_max} for the deepest ||w_k|| within the bit budget
    seq = _seq(roy_family(*abc), SturmianProgram([-1, 1], [period]))
    choice = resolve_delta(seq)
    assert choice.report.k_max == k_max
    assert seq.norm(k_max).bit_length() <= DELTA_BITS < seq.norm(k_max + 1).bit_length()
    assert choice.value == delta_estimate(seq, k_max).delta_hat
    assert choice.source == f"empirical delta_hat at k = {k_max}"


def test_resolve_delta_unimodular():
    choice = resolve_delta(_seq(bl_family(1, 2), SturmianProgram([-1, 1], [2])))
    assert choice.value == 0 and choice.report is None
    assert choice.source == "exact (unimodular seed)"


def test_hatw_recurrence_and_anchors():
    seq = _seq(bl_family(1, 2))
    hw = HatW(seq, k0=8, prec=256)
    with mpmath.workprec(256):
        a0, a1 = hw.anchors
        assert abs(hw.log(7) - a0) < 1e-60 and abs(hw.log(8) - a1) < 1e-60
        # upward from the anchor pair (downward extrapolation expands the
        # rounding error and is allowed to raise DegenerateGrowth instead)
        for k in range(8, 14):
            s = seq.prog.s(k + 1)
            assert abs(hw.log(k + 1) - (s * hw.log(k) + hw.log(k - 1))) < 1e-60
    # integer coefficient pairs follow the same recurrence
    for k in range(9, 16):
        ak, bk = hw.coeffs(k)
        am, bm = hw.coeffs(k - 1)
        al, bl = hw.coeffs(k - 2)
        assert (ak, bk) == (seq.prog.s(k) * am + al, seq.prog.s(k) * bm + bl)


def test_hatw_drift_is_linear_not_multiplicative():
    # the raw hat solution drifts from log||w_k|| at a linear-in-k rate; the
    # per-index gap must stay far below log||w_k|| itself
    seq = _seq(bl_family(1, 2))
    hw = HatW(seq, k0=4, prec=256)
    gaps = [abs(hw.log(k) - seq.log_norm(k, 256)) for k in range(4, 13)]
    assert gaps[-1] < 0.35 * float(seq.log_norm(12, 256))
    assert all(g < 60 for g in gaps)
