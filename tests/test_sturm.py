import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmlab.exactlin import to_real
from sturmlab.sturm import (
    BadSequence, QuadSurd, SturmianProgram,
    cf_eventually_periodic, cf_purely_periodic,
    characteristic_word, delta_an, h_of_sigma, quantities,
    spectrum_endpoints, u_value,
)


def cf_backward(prog: SturmianProgram, k: int) -> Fraction:
    """Exact value of the backward continued fraction [s_{k+1}; s_k, ..., s_1]:
    the reference the limit quantities are checked against."""
    acc = Fraction(prog.s(1))
    for j in range(2, k + 2):
        acc = Fraction(prog.s(j)) + 1 / acc
    return acc


# --- QuadSurd exact arithmetic ---------------------------------------------

small = st.integers(min_value=-50, max_value=50)
pos = st.integers(min_value=1, max_value=50)
surds = st.builds(lambda p, q, d, r: QuadSurd.make(p, q, d, r),
                  small, small, st.integers(min_value=0, max_value=30), pos)


def _f(s, prec=160):
    return s.to_real(prec)


@given(surds, surds)
# near 2^7 one 128-bit rounding is already 2^-120, the bound asserted below
@example(QuadSurd.make(0, 41, 19, 1), QuadSurd.make(1, -40, 19, 5))
def test_surd_add_mul_numeric(x, y):
    if x.q and y.q and x.d != y.d:
        with pytest.raises(ValueError):
            x + y
        return
    with mpmath.workprec(160):
        assert abs(_f(x + y) - (_f(x) + _f(y))) < mpmath.mpf(2) ** -120
        assert abs(_f(x * y) - (_f(x) * _f(y))) < mpmath.mpf(2) ** -100


@given(surds)
def test_surd_canonical(x):
    # squarefree radicand, positive denominator, reduced
    assert x.r > 0
    if x.q == 0:
        assert x.d == 0
    else:
        assert x.d > 1
        for p in (2, 3, 5):
            assert x.d % (p * p) != 0
    assert math.gcd(math.gcd(abs(x.p), abs(x.q)), x.r) == 1


@given(surds)
def test_surd_sign_and_inverse(x):
    with mpmath.workprec(160):
        v = _f(x)
        assert x.sign() == (0 if v == 0 else (1 if v > 0 else -1))
    if x.sign() != 0:
        assert (x * x.inverse()) == QuadSurd.make(1, 0, 0, 1)


def test_surd_compare_cross_radicand():
    assert QuadSurd.make(0, 1, 2, 1) < QuadSurd.make(0, 1, 3, 1)
    assert QuadSurd.make(0, 1, 2, 1).compare(Fraction(3, 2)) < 0
    # sqrt(2) + sqrt(2) vs rational
    assert QuadSurd.make(0, 2, 2, 1) > 2


_big = st.integers(min_value=-10 ** 12, max_value=10 ** 12)
irrational_surds = st.builds(
    QuadSurd.make, _big, _big.filter(bool),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 1001, 30030]),
    st.integers(min_value=1, max_value=10 ** 12))


@settings(max_examples=300, deadline=None)
@given(irrational_surds, irrational_surds)
# 1 + sqrt 2 and a convergent multiple of sqrt 3 differ by 2.5e-40
@example(QuadSurd.make(1, 1, 2, 1),
         QuadSurd.make(0, 30161134263516182208, 3, 21638772050872614461))
def test_surd_compare_distinct_radicands(x, y):
    """The exact comparison across radicands agrees with 600-bit mpmath
    wherever that separates the two values."""
    assume(x.d != y.d)
    with mpmath.workprec(600):
        diff = x.to_real(600) - y.to_real(600)
        assume(abs(diff) > mpmath.mpf(2) ** -500)
    want = 1 if diff > 0 else -1
    assert x.compare(y) == want and y.compare(x) == -want


def test_golden_ratio_surd():
    gamma = QuadSurd.make(1, 1, 5, 2)
    assert gamma * gamma == gamma + 1          # gamma^2 = gamma + 1
    assert 1 / gamma == gamma - 1


# --- continued fractions ----------------------------------------------------

def test_cf_purely_periodic_golden():
    x = cf_purely_periodic([1])
    assert x == QuadSurd.make(1, 1, 5, 2)
    y = cf_purely_periodic([2])
    assert y == QuadSurd.make(1, 1, 2, 1)      # 1 + sqrt 2


def test_cf_eventually_periodic():
    # [1; 2, 2, 2, ...] = sqrt 2
    assert cf_eventually_periodic([1], [2]) == QuadSurd.make(0, 1, 2, 1)
    # [0; 1, 1, 1, ...] = 1/gamma
    assert cf_eventually_periodic([0], [1]) == QuadSurd.make(-1, 1, 5, 2)


def test_cf_backward_fibonacci():
    prog = SturmianProgram.all_ones()
    # [1;1,...,1] (k ones after the semicolon) = F_{k+2}/F_{k+1}
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    for k in range(8):
        assert cf_backward(prog, k) == Fraction(fib[k + 1], fib[k])


# --- programs ---------------------------------------------------------------

def test_program_parse_round_trip():
    p = SturmianProgram.parse("prefix=[-1,1,3,2];period=[2,1]")
    assert p.prefix == [-1, 1, 3, 2] and p.period == [2, 1]


def test_program_validation():
    with pytest.raises(BadSequence):
        SturmianProgram([0, 1], [1])
    with pytest.raises(BadSequence):
        SturmianProgram([-1, 1, 0], [1])
    with pytest.raises(BadSequence):
        SturmianProgram([-1, 1], [])
    with pytest.raises(BadSequence):
        SturmianProgram([-1, 1], [1, 0])


def test_all_ones_t_values():
    p = SturmianProgram.all_ones()
    assert p.is_fibonacci
    for k in range(30):
        assert p.t(k) == k - 1
    assert p.s(0) == -1 and p.s(1) == 1 and p.s(17) == 1


def test_program_equality_ignores_t_cache():
    p1, p2 = SturmianProgram.all_ones(), SturmianProgram.all_ones()
    p1.t(5)
    assert p1 == p2
    assert SturmianProgram([-1, 1], [2]) != p2


def test_t_partial_sums():
    p = SturmianProgram([-1, 1, 2, 3], [1, 4])
    for k in range(1, 40):
        assert p.t(k) == sum(p.s(j) for j in range(k + 1))
    assert not p.is_fibonacci


def psi_inv(prog, i: int) -> int:
    """The inverse of psi: i + 1, except psi_inv(t_{k+1} - 1) = t_{k+2}."""
    m = prog.t_index_of(i + 1)
    return prog.t(m + 1) if m is not None and m >= 1 else i + 1


@pytest.mark.parametrize("prog", [
    SturmianProgram.all_ones(),
    SturmianProgram([-1, 1], [2]),
    SturmianProgram([-1, 1, 3, 1], [2, 1, 4]),
])
def test_psi_round_trip(prog):
    # psi is injective and decreases by >= 1; psi_inv inverts it.  i = t_1 = 0
    # is excluded: psi(t_1) = t_0 - 1 = -2 sits below the inverse's domain.
    for i in range(1, 2000):
        j = prog.psi(i)
        assert j <= i - 1
        assert psi_inv(prog, j) == i
    for i in range(0, 2000):
        assert prog.psi(psi_inv(prog, i)) == i


@pytest.mark.parametrize("prog", [
    SturmianProgram.all_ones(),
    SturmianProgram([-1, 1, 2], [3, 1]),
])
def test_block_of(prog):
    for j in range(0, 500):
        k, l = prog.block_of(j)
        assert prog.t(k) <= j < prog.t(k + 1)
        assert l == j - prog.t(k)


def _scan_t_index_of(prog, i):
    """Reference: the earlier linear scan for k >= 1 with t_k = i."""
    if i < 0:
        return None
    k = 1
    while prog.t(k) < i:
        k += 1
    return k if prog.t(k) == i else None


def _scan_block_of(prog, j):
    """Reference: the earlier linear scan for t_k <= j < t_{k+1}."""
    k = 1
    while prog.t(k + 1) <= j:
        k += 1
    return k, j - prog.t(k)


@pytest.mark.parametrize("period,prefix", [
    ([1], [-1, 1]), ([2], [-1, 1]), ([1, 2], [-1, 1]), ([1, 2], [-1, 1, 3]),
])
def test_bisection_matches_scan(period, prefix):
    # the bisected lookups start from a cold cache, largest index first
    prog, ref = SturmianProgram(prefix, period), SturmianProgram(prefix, period)
    for j in range(500, -1, -1):
        assert prog.block_of(j) == _scan_block_of(ref, j)
    for i in range(-3, 501):
        assert prog.t_index_of(i) == _scan_t_index_of(ref, i)


# --- limit quantities -------------------------------------------------------

def test_quantities_all_ones():
    q = quantities(SturmianProgram.all_ones())
    gamma_inv = QuadSurd.make(-1, 1, 5, 2)
    assert q.sigma_surd == gamma_inv
    assert q.tau_surd == gamma_inv
    assert q.sigma_prime_surd is None and q.sigma_prime == math.inf
    with mpmath.workprec(256):
        assert abs(q.sigma - (mpmath.sqrt(5) - 1) / 2) < mpmath.mpf(2) ** -200


def test_quantities_period_two():
    q = quantities(SturmianProgram([-1, 1], [2]))
    r = QuadSurd.make(-1, 1, 2, 1)             # sqrt 2 - 1
    assert q.sigma_surd == r and q.tau_surd == r and q.sigma_prime_surd == r


LONG_PREFIX = "prefix=[-1,1" + ",2" * 18 + "];period=[1]"


@pytest.mark.parametrize("text", [
    "prefix=[-1,1];period=[1]",
    "prefix=[-1,1];period=[2]",
    "prefix=[-1,1];period=[1,2]",
    LONG_PREFIX,
])
def test_quantities_match_backward_cf(text):
    # sigma = 1/limsup [s_{k+1}; s_k, ..., s_1] and tau = 1/liminf [s_k; ..., s_1],
    # read off one k per phase of the periodic tail at k = 64
    prog = SturmianProgram.parse(text)
    q = quantities(prog)
    ks = range(65 - len(prog.period), 65)
    with mpmath.workprec(256):
        sup = max(cf_backward(prog, k) for k in ks)
        inf = min(cf_backward(prog, k - 1) for k in ks)
        assert abs(1 / to_real(sup) - q.sigma) < 1e-15
        assert abs(to_real(inf) - 1 / q.tau) < 1e-15


def test_h_of_sigma():
    with mpmath.workprec(128):
        s = (mpmath.sqrt(5) - 1) / 2
        h = h_of_sigma(s)
        assert abs(h - mpmath.mpf("0.26235969477181262162618623940")) < 1e-25
        assert h <= s / (1 + s)
        # defining quadratic: (h - 1)(h - sigma - 1) = 1  <=>  h = sigma/2+1-sqrt(...)
        assert abs((h - 1) * (h - s - 1) - 1) < mpmath.mpf(2) ** -100


# --- words and spectrum -----------------------------------------------------

def test_characteristic_word_fibonacci():
    w = characteristic_word(1, SturmianProgram.all_ones(), "a", "b", 200)
    # independent oracle: fixed point of a -> ab, b -> a
    v = "a"
    while len(v) < 200:
        v = "".join("ab" if ch == "a" else "a" for ch in v)
    assert w == v[:200]


def test_characteristic_word_s1_prime():
    w = characteristic_word(3, SturmianProgram.all_ones(), "a", "b", 30)
    assert w.startswith("bba")
    # balanced: letter counts of any two length-n windows differ by <= 1
    n = 7
    counts = {w[i:i + n].count("a") for i in range(len(w) - n)}
    assert len(counts) <= 2


def test_u_and_delta_values():
    # u_{1,1} = [1; 1, 1, ...] = gamma, delta_{1,1} = 2 gamma = 1 + sqrt 5
    assert u_value(1, 1) == QuadSurd.make(1, 1, 5, 2)
    assert delta_an(1, 1) == QuadSurd.make(1, 1, 5, 1)
    assert delta_an(2, 2) == QuadSurd.make(2, 2, 2, 1)
    assert delta_an(3, 3) == QuadSurd.make(3, 1, 13, 1)
    # closed form delta_{a,n} = n + n sqrt(1 + 4/(a n))
    with mpmath.workprec(128):
        for a, n in [(1, 2), (2, 3), (5, 4)]:
            v = delta_an(a, n).to_real(128)
            ref = n + n * mpmath.sqrt(1 + mpmath.mpf(4) / (a * n))
            assert abs(v - ref) < mpmath.mpf(2) ** -100


def test_spectrum_endpoints():
    sp = spectrum_endpoints()
    with mpmath.workprec(128):
        tol = mpmath.mpf("1e-10")
        assert abs(sp.named["delta_1_1"].to_real(128) - (1 + mpmath.sqrt(5))) < tol
        assert abs(sp.named["delta_2_2"].to_real(128) - (2 + 2 * mpmath.sqrt(2))) < tol
        assert abs(sp.named["delta_3_3"].to_real(128) - (3 + mpmath.sqrt(13))) < tol
    labels = [iv[0] for iv in sp.intervals]
    assert len(sp.intervals) == 3
    # first interval starts at delta_{1,1}, last is unbounded above
    assert sp.intervals[0][1] == sp.named["delta_1_1"]
    assert sp.intervals[-1][2] is None
    del labels
