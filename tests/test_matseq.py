import dataclasses
import functools
import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmlab import matseq
from sturmlab.exactlin import IntMat2
from sturmlab.matseq import (
    BadRoyTriple, DegenerateGrowth, DegenerateSeed, HatW, Ladder, MatrixSeed, MatrixSequence,
    DELTA_BITS, admissibility_checks, bl_family, check_mult_growth, delta_estimate,
    lemma_shape_ok, mirror_shape_ok, resolve_delta, roy_family, solve_admissibility,
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


def _growth_ratios(seq, k_max):
    """(num, den) = (||w_k^l w_{k-1}||, ||w_k|| ||w_k^{l-1} w_{k-1}||) for
    k = 1..k_max, 1 <= l <= s_{k+1} + 1, in exact integers."""
    return [(seq.ladder(k, l).sup_norm(), seq.norm(k) * seq.ladder(k, l - 1).sup_norm())
            for k in range(1, k_max + 1) for l in range(1, seq.prog.s(k + 1) + 2)]


def test_mult_growth():
    for seed in (roy_family(2, 1, 2), roy_family(3, 1, 3), bl_family(1, 2)):
        seq = _seq(seed)
        rep = check_mult_growth(seq, 10)
        ratios = _growth_ratios(seq, 10)
        # ||w_k^l w_{k-1}|| >= ||w_k|| ||w_k^{l-1} w_{k-1}|| at every rung, exactly
        assert all(num >= den for num, den in ratios)
        assert rep.shape_ok
        # the reported range is the exact extremes, correctly rounded
        exact = [Fraction(num, den) for num, den in ratios]
        assert (rep.ratio_min, rep.ratio_max) == (float(min(exact)), float(max(exact)))
    # Roy's entrywise shape is a roy feature; bl seeds have its mirror image
    for seed in (roy_family(2, 1, 2), roy_family(3, 1, 3)):
        assert lemma_shape_ok(seed.w0) and lemma_shape_ok(seed.w1)
    bl = bl_family(1, 2)
    assert not lemma_shape_ok(bl.w0) and mirror_shape_ok(bl.w0) and mirror_shape_ok(bl.w1)


def test_mixed_shapes_are_not_a_growth_certificate():
    """w0 of Roy's shape and w1 of its mirror image: the certificate fails, and
    so does growth (a ratio below 1)."""
    w0, w1 = IntMat2(1, 2, 2, 5), IntMat2(3, 1, 1, 0)
    seq = _seq(MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="custom", params=()))
    assert not check_mult_growth(seq, 8).shape_ok
    assert any(num < den for num, den in _growth_ratios(seq, 8))


@st.composite
def _shaped_pair(draw):
    """Roy's shape or its mirror image, and two matrices of that shape with
    entries up to 13, each inequality tight or loose."""
    roy = draw(st.booleans())

    def one():
        e = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
        lo = e[0] + roy
        b, c = lo + e[1], lo + e[2]
        hi = max(b, c) + e[3]
        return IntMat2(lo, b, c, hi) if roy else IntMat2(hi, b, c, lo)

    return (lemma_shape_ok if roy else mirror_shape_ok), one(), one()


@settings(max_examples=200, deadline=None)
@given(_shaped_pair())
def test_shapes_are_kept_by_products(shape_pair):
    """The lemma of `check_mult_growth`'s docstring: a product of two matrices
    of Roy's shape, or of two of its mirror image, has that shape, and its sup
    norm is at least the product of theirs."""
    shape, m, n = shape_pair
    assert shape(m) and shape(n)
    assert shape(m @ n)
    assert (m @ n).sup_norm() >= m.sup_norm() * n.sup_norm()


@pytest.mark.parametrize("shape, m", [
    (lemma_shape_ok, IntMat2(0, 1, 1, 1)), (lemma_shape_ok, IntMat2(2, 1, 3, 4)),
    (lemma_shape_ok, IntMat2(1, 2, 5, 4)), (mirror_shape_ok, IntMat2(3, 0, 2, 1)),
    (mirror_shape_ok, IntMat2(2, 3, 1, 0)), (mirror_shape_ok, IntMat2(1, 1, 1, -1)),
])
def test_shapes_refuse_one_broken_inequality(shape, m):
    assert not shape(m)


@st.composite
def _shaped_seeds(draw):
    """A roy seed (a <= 5, 1 <= b <= c <= 6) with Roy's shape, or a bl seed
    (a != b <= 5, s1' <= 3) with its mirror image."""
    if draw(st.booleans()):
        b = draw(st.integers(1, 6))
        return roy_family(draw(st.integers(2, 5)), b, draw(st.integers(b, 6))), lemma_shape_ok
    a, b = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    return bl_family(a, b, draw(st.integers(1, 3))), mirror_shape_ok


# up to two extra prefix terms, period entries <= 3, period length <= 3
PROGRAMS = st.builds(lambda extra, period: SturmianProgram([-1, 1] + extra, period),
                     st.lists(st.integers(1, 3), max_size=2),
                     st.lists(st.integers(1, 3), min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(_shaped_seeds(), PROGRAMS)
def test_growth_certificate(seed_and_shape, prog):
    """What `check_mult_growth`'s docstring proves: every rung w_k^l w_{k-1},
    k <= 7, keeps the seed's shape, and its growth ratio num / den is at least
    1, exactly."""
    seed, shape = seed_and_shape
    seq = MatrixSequence(seed, prog)
    assert check_mult_growth(seq, 7).shape_ok
    for k in range(1, 8):
        assert all(shape(seq.ladder(k, l)) for l in range(prog.s(k + 1) + 2)), k
    assert all(num >= den for num, den in _growth_ratios(seq, 7))


def _exact_extremes(ratios):
    """float(min) and float(max) of the exact Fractions num / den; the
    comparisons cross-multiply, so only the two extremes are reduced."""
    key = functools.cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])
    return tuple(float(Fraction(*pick(ratios, key=key))) for pick in (min, max))


@settings(max_examples=40, deadline=None)
@given(_shaped_seeds(), PROGRAMS, st.integers(1, 10))
def test_growth_range_is_the_exact_extremes(seed_and_shape, prog, k_max):
    seq = MatrixSequence(seed_and_shape[0], prog)
    rep = check_mult_growth(seq, k_max)
    assert (rep.ratio_min, rep.ratio_max) == _exact_extremes(_growth_ratios(seq, k_max))


@settings(max_examples=40, deadline=None)
@given(_shaped_seeds(), PROGRAMS, st.integers(1, 10))
def test_rung_enclosures_enclose_the_rungs(seed_and_shape, prog, k_max):
    """At every rung w_k^l w_{k-1}, k <= k_max, the sibling ladders agree with
    the exact one: 2^e lo <= rung <= 2^e hi entrywise at the scan's first
    precision (likewise for w_k), `residues` is the rung mod `modulus` and
    `dets` its determinant; on roy seeds |det w_k| = a^{f_k}, with
    f_0 = f_1 = 1 and f_{k+1} = s_{k+1} f_k + f_{k-1}."""
    seed = seed_and_shape[0]
    seq = MatrixSequence(seed, prog)
    enclosures = seq.enclosures(matseq._GROWTH_BITS)

    def encloses(enc, m):
        e, lo, hi = enc
        return all((x << e) <= y <= (z << e) for x, y, z in
                   zip(dataclasses.astuple(lo), dataclasses.astuple(m), dataclasses.astuple(hi)))

    f = [1, 1]
    for k in range(1, k_max):
        f.append(prog.s(k + 1) * f[k] + f[k - 1])
    exponents = Ladder(prog, 1, 1, operator.add)
    for k in range(1, k_max + 1):
        assert encloses(enclosures.w(k), seq.w(k)), k
        assert exponents.w(k) == f[k], k
        if seed.family == "roy":
            assert abs(seq.dets.w(k)) == seed.params[0] ** f[k], k
        for l in range(prog.s(k + 1) + 2):
            rung = seq.ladder(k, l)
            assert encloses(enclosures.ladder(k, l), rung), (k, l)
            assert seq.residues.ladder(k, l) == rung % seq.modulus, (k, l)
            assert seq.dets.ladder(k, l) == rung.det(), (k, l)


LADDERS = {"exact": lambda seq: seq, "residues": lambda seq: seq.residues,
           "dets": lambda seq: seq.dets, "enclosures": lambda seq: seq.enclosures(96)}


@pytest.mark.parametrize("prog", [SturmianProgram.all_ones(), SturmianProgram([-1, 1], [1, 2])],
                         ids=["fib", "period12"])
@pytest.mark.parametrize("pick", LADDERS.values(), ids=LADDERS.keys())
def test_ladder_range_checks(pick, prog):
    """Every ladder refuses w_k for k < 0 and the rungs (k, l) outside k >= 1,
    0 <= l <= s_{k+1} + 1, also once the rungs around them are built."""
    ladder = pick(MatrixSequence(roy_family(2, 1, 2), prog))
    ladder.w(6)
    for k in range(1, 6):
        ladder.ladder(k, prog.s(k + 1) + 1)
        for l in (-1, prog.s(k + 1) + 2):
            with pytest.raises(ValueError):
                ladder.ladder(k, l)
    for call in (lambda: ladder.w(-1), lambda: ladder.ladder(0, 0)):
        with pytest.raises(ValueError):
            call()


def _counted_products(monkeypatch):
    """A list that grows by one at every `IntMat2` product formed from now on,
    counted on `IntMat2.__matmul__`, the hook sturmbench's tracer counts."""
    products = []
    matmul = IntMat2.__matmul__

    def counted(x, y):
        products.append(None)
        return matmul(x, y)

    monkeypatch.setattr(IntMat2, "__matmul__", counted)
    return products


@pytest.mark.parametrize("prog", [SturmianProgram.all_ones(), SturmianProgram([-1, 1], [1, 2])],
                         ids=["fib", "period12"])
def test_exact_ladder_forms_each_rung_once(monkeypatch, prog):
    """w_K costs s_2 + ... + s_K products, each through `@`: the rungs
    l = 1..s_{k+1} of each k < K, rung s_{k+1} being w_{k+1}; rung
    s_{k+1} + 1 is formed only on request."""
    seq = MatrixSequence(roy_family(2, 1, 2), prog)
    products = _counted_products(monkeypatch)
    K = 12
    seq.w(K)
    assert len(products) == sum(prog.s(k + 1) for k in range(1, K))
    seq.w(K)
    seq.ladder(K - 1, prog.s(K))
    assert len(products) == sum(prog.s(k + 1) for k in range(1, K))
    seq.ladder(K - 1, prog.s(K) + 1)
    assert len(products) == sum(prog.s(k + 1) for k in range(1, K)) + 1


def _recorded_precisions(monkeypatch):
    """The p of every scan `check_mult_growth` starts, in order."""
    calls = []
    enclosures = MatrixSequence.enclosures

    def recorded(seq, p):
        calls.append(p)
        return enclosures(seq, p)

    monkeypatch.setattr(MatrixSequence, "enclosures", recorded)
    return calls


@pytest.mark.parametrize("seed, prog", [
    (roy_family(2, 1, 2), SturmianProgram([-1, 1], [2])),
    (roy_family(2, 7, 8), SturmianProgram([-1, 1], [1, 2])),
    (bl_family(1, 2), SturmianProgram.all_ones()),
])
def test_growth_rescan_doubles_the_precision(monkeypatch, seed, prog):
    """From 8 bits a ratio is undecided: the scan doubles p and still returns
    the exact extremes."""
    monkeypatch.setattr(matseq, "_GROWTH_BITS", 8)
    calls = _recorded_precisions(monkeypatch)
    seq = MatrixSequence(seed, prog)
    rep = check_mult_growth(seq, 10)
    assert len(calls) > 1 and calls == [8 << i for i in range(len(calls))]
    assert (rep.ratio_min, rep.ratio_max) == _exact_extremes(_growth_ratios(seq, 10))


def test_growth_of_a_seed_with_a_negative_entry(monkeypatch):
    """Enclosures need entries >= 0; a custom seed with a negative entry is
    scanned once on the exact ladder, forming each rung once, and its range
    is the exact extremes."""
    w0, w1 = IntMat2(1, 2, -1, 3), IntMat2(2, 1, 1, 1)
    seq = _seq(MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="custom", params=()))
    calls = _recorded_precisions(monkeypatch)
    products = _counted_products(monkeypatch)
    rep = check_mult_growth(seq, 8)
    assert calls == [None]
    # one product per rung (k, l), 1 <= k <= 8, 1 <= l <= 2, shared with `seq.ladder`
    assert len(products) == 16
    assert (rep.ratio_min, rep.ratio_max) == _exact_extremes(_growth_ratios(seq, 8))
    assert len(products) == 16
    assert rep.ratio_min < 1 < rep.ratio_max


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


ROY_TRIPLES = st.integers(1, 6).flatmap(
    lambda b: st.tuples(st.integers(2, 6), st.just(b), st.integers(b, 6)))


@settings(max_examples=40, deadline=None)
@given(ROY_TRIPLES, st.one_of(st.none(), ROY_TRIPLES), PROGRAMS)
@example((2, 1, 2), (2, 1, 3), SturmianProgram([-1, 1], [1, 2]))    # a looser bracket holds
@example((2, 1, 2), (2, 1, 1), SturmianProgram.all_ones())          # ||w1|| > a(c+1)
@example((2, 1, 2), (2, 2, 2), SturmianProgram.all_ones())          # ||w0|| < a(b+1)
@example((2, 2, 2), (3, 1, 1), SturmianProgram.all_ones())          # norms fit, |det w0| != a
def test_delta_bracket_base_case_decides_every_k(abc, label, prog):
    """`_bracket_holds` checks k = 0, 1 only, and `delta_estimate`'s induction
    carries the bracket's integer form to every k.  On roy matrices labelled
    with their own triple or with another one, its verdict equals that form
    checked at each k <= 12.  Programs with f_12 > 10^5 are left out: on the
    period [3], w_12 has 3 million bits and takes seconds to form."""
    f = [1, 1]
    for k in range(1, 12):
        f.append(prog.s(k + 1) * f[k] + f[k - 1])
    assume(f[12] <= 10 ** 5)
    seq = _seq(dataclasses.replace(roy_family(*abc), params=label or abc), prog)
    a, b, c = label or abc
    per_k = all(abs(seq.det(k)) == a ** f[k]
                and (a * (b + 1)) ** f[k] <= seq.norm(k)
                and 2 * seq.norm(k) <= (2 * a * (c + 1)) ** f[k] for k in range(13))
    assert matseq._bracket_holds(seq) == per_k
    if label is None:
        assert per_k


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


def _hatw_walk(prog, anchors, k0, k):
    """log W-hat's coefficient pair at k by the walks up and down from the
    anchor pair (k0 - 1, k0): the reference for `HatW.coeffs`'s Cramer's
    rule.  The walk down raises at the first value <= 0 it reaches."""
    coeffs = {k0 - 1: (1, 0), k0: (0, 1)}
    for j in range(k0, k):
        s = prog.s(j + 1)
        (a1, b1), (a0, b0) = coeffs[j], coeffs[j - 1]
        coeffs[j + 1] = (s * a1 + a0, s * b1 + b0)
    for j in range(k0 - 1, k, -1):
        s = prog.s(j + 1)
        (a1, b1), (a0, b0) = coeffs[j + 1], coeffs[j]
        a, b = coeffs[j - 1] = (a1 - s * a0, b1 - s * b0)
        if a * anchors[0] + b * anchors[1] <= 0:
            raise DegenerateGrowth(
                f"downward extension of log W-hat reaches a non-positive value at k = {j - 1}")
    return coeffs[k]


def _outcome(f, *args):
    try:
        return f(*args)
    except DegenerateGrowth as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(_shaped_seeds(),
       st.builds(lambda extra, period: SturmianProgram([-1, 1] + extra, period),
                 st.lists(st.integers(1, 3), max_size=3),
                 st.lists(st.integers(1, 3), min_size=1, max_size=3)),
       st.integers(2, 8), st.lists(st.integers(0, 24), min_size=1, max_size=6))
@example((bl_family(1, 2), mirror_shape_ok), SturmianProgram.all_ones(), 4, [0, 1, 2, 9])
def test_hatw_coeffs_are_the_walks(seed_and_shape, prog, k0, ks):
    """`HatW.coeffs` equals the walks up and down from the anchors at every k,
    in any order of calls, and raises the same DegenerateGrowth wherever the
    walk down reaches a value <= 0."""
    seq = MatrixSequence(seed_and_shape[0], prog)
    assume(seq.norm(k0 - 1) > 1 and seq.norm(k0) > 1)
    hw = HatW(seq, k0=k0)
    for k in ks:
        assert _outcome(hw.coeffs, k) == _outcome(_hatw_walk, prog, hw.anchors, k0, k), k
