import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmlab.exactlin import IntMat2, J, SymVec, ZeroObject, det3

ints = st.integers(min_value=-10 ** 9, max_value=10 ** 9)
mats = st.builds(IntMat2, ints, ints, ints, ints)
vecs = st.builds(SymVec, ints, ints, ints)


def _mat(x: SymVec) -> IntMat2:
    """The symmetric matrix [[x0, x1], [x1, x2]] that x stands for."""
    return IntMat2(x.x0, x.x1, x.x1, x.x2)


def test_J_basics():
    assert J.det() == 1
    assert (J @ J) == IntMat2(-1, 0, 0, -1)
    assert J.transpose() == -J
    assert J.tr_J() == -2  # Tr(J@J) = -2


def _adj(m: IntMat2) -> IntMat2:
    """The adjugate, m @ adj(m) == det(m) I."""
    return IntMat2(m.d, -m.b, -m.c, m.a)


def test_identity_and_adj():
    m = IntMat2(3, 1, 4, 1)
    assert m @ IntMat2.identity() == m
    assert m @ _adj(m) == m.det() * IntMat2.identity()
    assert (m ** 5) == m @ m @ m @ m @ m
    assert (m ** 0) == IntMat2.identity()


@given(mats)
def test_adj_identity(m):
    assert m @ _adj(m) == m.det() * IntMat2.identity()
    assert _adj(m) @ m == m.det() * IntMat2.identity()


@given(mats, mats)
def test_sandwich_by_cayley_hamilton(y, p):
    # the form in which verify_identities checks the square step's right side
    assert y @ _adj(p) @ y == (y @ _adj(p)).trace() * y - y.det() * p


@given(mats, mats)
def test_det_multiplicative(m, n):
    assert (m @ n).det() == m.det() * n.det()


@given(mats)
def test_tr_J_is_antisymmetric_part(m):
    assert m.tr_J() == (J @ m).trace()
    assert m.is_symmetric() == (m.tr_J() == 0)


@given(vecs)
def test_symvec_matrix_alias(x):
    m = _mat(x)
    assert m.is_symmetric()
    assert m.sym_vec() == x
    assert m.det() == x.det()
    assert m.trace() == x.trace()


@given(vecs)
def test_symmetric_mJm(x):
    # for symmetric m: m (J m J) = -det(m) I, since J m J = -adj(m)
    m = _mat(x)
    assert J @ m @ J == -_adj(m)


@given(vecs, vecs)
def test_wedge_antisymmetric_orthogonal(x, y):
    w = x.wedge(y)
    assert w == -(y.wedge(x))
    assert x.dot(w) == 0
    assert y.dot(w) == 0


@given(vecs, vecs)
def test_lagrange_identity(x, y):
    w = x.wedge(y)
    assert w.dot(w) == x.dot(x) * y.dot(y) - x.dot(y) ** 2


def det3_trace_form(x: SymVec, y: SymVec, z: SymVec) -> int:
    """The determinant of the rows x, y, z as Tr(J x J y J z) over the matrix
    alias: the reference that `det3` is checked against."""
    return (J @ _mat(x) @ J @ _mat(y) @ J @ _mat(z)).trace()


@given(vecs, vecs, vecs)
def test_det3_both_ways(x, y, z):
    d = det3(x, y, z)
    assert d == det3_trace_form(x, y, z)
    # alternating
    assert det3(y, x, z) == -d
    assert det3(x, x, z) == 0


@given(vecs, vecs, vecs, vecs)
def test_det3_multilinear(x, y, z, w):
    assert det3(x + w, y, z) == det3(x, y, z) + det3(w, y, z)


def test_content_primitive():
    v = SymVec(6, -9, 15)
    assert v.content() == 3
    assert v.primitive() == SymVec(2, -3, 5)
    assert v.primitive().content() == 1
    with pytest.raises(ZeroObject):
        SymVec(0, 0, 0).content()


def test_norms():
    v = SymVec(-3, 4, 0)
    assert v.sup_norm() == 4


@given(mats)
@example(IntMat2(3, 1, 4, 1))      # gcd(tr, det) = 1
@example(IntMat2(2, 1, 1, 2))      # gcd(tr, det) = 1
@example(IntMat2(1, 1, 1, 3))      # gcd(tr, det) = 2, content 1
@example(IntMat2(2, 4, 6, 8))      # gcd(tr, det) = 2, content 2
@example(IntMat2(3, 0, 0, 3))      # gcd(tr, det) = 3, content 3
def test_content_divides_gcd_trace_det(m):
    """content(m) | gcd(tr m, det m), so a coprime (tr, det) pair implies a
    primitive matrix; verify_identities derives ladder_primitive from it."""
    assume(m != IntMat2(0, 0, 0, 0))
    g = math.gcd(m.trace(), abs(m.det()))
    assert g % m.content() == 0
    if g == 1:
        assert m.content() == 1
