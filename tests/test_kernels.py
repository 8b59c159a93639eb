import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmlab import kernels, paramgeo
from sturmlab.approx import make_bundle
from sturmlab.exactlin import SymVec
from sturmlab.matseq import bl_family, roy_family
from sturmlab.sturm import SturmianProgram
from make_bruteforce import ORACLE_GRID

SIDES = ("primal", "dual")
COLLECT = {"primal": kernels.collect_primal, "dual": kernels.collect_dual}
FAMILIES = {"bl12": (bl_family(1, 2), SturmianProgram.all_ones()),
            "roy212": (roy_family(2, 1, 2), SturmianProgram.all_ones()),
            "roy278": (roy_family(2, 7, 8), SturmianProgram.all_ones()),
            "bl12_p2": (bl_family(1, 2), SturmianProgram([-1, 1], [2]))}


@pytest.fixture(scope="module")
def builders():
    return {name: paramgeo.CandidateBuilder(make_bundle(*fam), prec=256)
            for name, fam in FAMILIES.items()}


def _body(cb, q, side):
    """(u, q, p, key, terms) of one side of `_size_keys` at q, at 256 bits."""
    u, qm = cb.u(256), mpmath.mpf(q)
    with mpmath.workprec(256):
        key, terms = kernels._size_keys(u, qm, 256)[SIDES.index(side)]
    return u, qm, 256, key, terms


def _args(body, bound):
    """The kernels' arguments for the body at the integer key bound."""
    u, q, p, _, _ = body
    return u[1], u[2], q, p, Fraction(bound, 2 ** (3 * p))


def _collect(side, body, bound):
    """The kernel of `side` for the body at the integer key bound."""
    with mpmath.workprec(body[2]):
        return COLLECT[side](*_args(body, bound))


def _canonical(x):
    """The larger of +-x as a tuple: one name for a pair."""
    return max(x.as_tuple(), (-x).as_tuple())


def _reference(key, terms, bound):
    """{+-x: key} for every nonzero x with key(x) <= bound, in a plain
    coordinate box: key <= form <= 2 key and Cauchy-Schwarz in the form's
    own Gram F give |x_i| <= sqrt(2 bound (F^-1)_ii).  No reduction."""
    f = [[sum(terms(a, b)) for b in kernels._UNIT] for a in kernels._UNIT]
    det = kernels._det(f)
    half = [math.isqrt(2 * bound * (f[j][j] * f[l][l] - f[j][l] ** 2) // det)
            for j, l in ((1, 2), (0, 2), (0, 1))]
    out = {}
    for x0 in range(-half[0], half[0] + 1):
        for x1 in range(-half[1], half[1] + 1):
            for x2 in range(-half[2], half[2] + 1):
                x = SymVec(x0, x1, x2)
                if not x.is_zero() and key(x) <= bound:
                    out[_canonical(x)] = key(x)
    return out


def _assert_matches_reference(side, body, bound):
    pts, keys = _collect(side, body, bound)
    got = {_canonical(x): k for x, k in zip(pts, keys)}
    assert len(got) == len(pts)                # one of each +-x
    assert got == _reference(body[3], body[4], bound)
    return len(pts)


# (seed, q): bodies of 50 to 110 points at 8 times the candidates' third
# key, whose plain coordinate boxes take at most about 0.3 s
REFERENCE_CASES = [("bl12", 0.5), ("bl12", 3.0), ("roy212", 1.25), ("roy212", 2.0),
                   ("roy278", 1.0), ("roy278", 2.0), ("bl12_p2", 1.0), ("bl12_p2", 3.0)]


def _candidate_bound(cb, q, side):
    """The key of the candidates' third point on `side`."""
    s = paramgeo.minima_candidates(cb, mpmath.mpf(q))
    return _body(cb, q, side)[3]((s.points, s.dual_points)[SIDES.index(side)][2])


@pytest.mark.parametrize("seed, q", REFERENCE_CASES)
def test_primal_matches_box_reference(builders, seed, q):
    """The primal kernel lists the points of a plain coordinate box with key
    at most 8 times the candidates' third key, with their exact keys."""
    body = _body(builders[seed], q, "primal")
    assert _assert_matches_reference("primal", body, 8 * _candidate_bound(builders[seed], q, "primal")) >= 50


@pytest.mark.parametrize("seed, q", REFERENCE_CASES)
def test_dual_matches_box_reference(builders, seed, q):
    body = _body(builders[seed], q, "dual")
    assert _assert_matches_reference("dual", body, 8 * _candidate_bound(builders[seed], q, "dual")) >= 50


# --- the window scan -----------------------------------------------------------
# A second exact reference, with no reduction, that scans each side's body in
# the coordinate windows the kernels scanned before they were reduced.  With
# U = round(2^p u) (U0 = 2^p) and E = round(2^p e^{2q}) of `_size_keys`, a
# point of key at most B has |x|^2 2^{3p} <= B (a term of both keys), so
# |x_i| <= isqrt(B >> 3p); on the primal side E (x.U)^2 <= B, and on the dual
# side each coordinate of E |x^U|^2 gives E (x_i U0 - x0 U_i)^2 <= B.  The
# primal scan runs over the disc of (x1, x2), with the x0 of the slab; the
# dual one over x0, with the x1 and x2 near x0 U_i / U0.  Each cell is kept
# by its exact key.  A radius R cuts the scan to |x1|, |x2| <= R (primal) or
# |x0| <= R (dual).

def _terms(side, u1, u2, q, p):
    """(key, terms) of side 0 (primal) or 1 (dual) of `_size_keys((1, u1, u2), q, p)`."""
    with mpmath.workprec(p):
        return kernels._size_keys((1, u1, u2), q, p)[side]


def _kept(side, U, x):
    """Whether x is the one of +-x that the kernels return: on the dual side
    the one with x0 U1 - x1 U0 > 0, and where that is 0 (and on the primal
    side) the one whose first nonzero of (x1, x2, x0) is negative."""
    w = x.x0 * U.x1 - x.x1 * U.x0 if side else 0
    return w > 0 if w else next(c for c in (x.x1, x.x2, x.x0) if c) < 0


def _window_scan(side, u1, u2, q, p, bound, R=None):
    """The kernels' (points, keys) in the window of radius R (all of it at
    R = None), in scan order."""
    key, terms = _terms(side, u1, u2, q, p)
    with mpmath.workprec(p):
        E = int(mpmath.nint(mpmath.ldexp(mpmath.exp(2 * q), p)))
    U, B = terms.U, math.floor(Fraction(bound) * 2 ** (3 * p))
    s, n = math.isqrt(B // E), B >> 3 * p
    R = math.isqrt(n) if R is None else min(R, math.isqrt(n))

    def near(c):                     # the t with |t U0 - c| <= s
        return range(-((s - c) // U.x0), (s + c) // U.x0 + 1)

    if side == 0:
        cells = (SymVec(x0, x1, x2) for x1 in range(-R, R + 1)
                 for h in (min(R, math.isqrt(n - x1 * x1)),) for x2 in range(-h, h + 1)
                 for x0 in near(-(x1 * U.x1 + x2 * U.x2)))
    else:
        cells = (SymVec(x0, x1, x2) for x0 in range(-R, R + 1)
                 for x1 in near(x0 * U.x1) for x2 in near(x0 * U.x2))
    pts = [x for x in cells if not x.is_zero() and _kept(side, U, x) and key(x) <= B]
    return pts, [key(x) for x in pts]


WINDOW_SCAN = {"collect_primal": functools.partial(_window_scan, 0),
               "collect_dual": functools.partial(_window_scan, 1)}


def _in_window(side, x, R):
    return R is None or (abs(x.x0) if side else max(abs(x.x1), abs(x.x2))) <= R


def _assert_same_in_window(side, args, got, R=None):
    """The kernel's result `got` for `args`, cut to the window of radius R,
    holds the window scan's points with their exact keys, and no pair +-x
    twice; returns how many points the window holds."""
    i = SIDES.index(side)
    pts, keys = got
    assert len({_canonical(x) for x in pts}) == len(pts)
    ref = _window_scan(i, *args, R=R)
    assert {x.as_tuple(): k for x, k in zip(pts, keys) if _in_window(i, x, R)} == \
        {x.as_tuple(): k for x, k in zip(*ref)}, (side, args, R)
    return len(ref[0])


def _assert_window(side, args, R=None):
    return _assert_same_in_window(side, args, COLLECT[side](*args), R)


XI = 0.7204846676321325             # bl(1,2)
XI_ROY = 2.874396040292625          # roy(2,1,2)


def _xi_args(side, xi, q, cutoff):
    """Kernel arguments for u = (1, xi, xi^2) at q and 256 bits whose bound
    is the key of lam = cutoff, where lam is max(|x|, e^q |x.u|) on the
    primal side and max(|x^u|, e^-q |x|) on the dual: cutoff^2, and
    e^{2q} cutoff^2 on the dual side."""
    bound = Fraction(cutoff) ** 2 * (Fraction(math.exp(2 * q)) if side == "dual" else 1)
    return mpmath.mpf(xi), mpmath.mpf(xi * xi), mpmath.mpf(q), 256, bound


@pytest.mark.parametrize("q,R,cutoff", [(2.0, 12, 8.0), (5.0, 40, 30.0)])
def test_primal_matches_reference(q, R, cutoff):
    """The primal kernel's points with |x1|, |x2| <= R are the window scan's."""
    assert _assert_window("primal", _xi_args("primal", XI, q, cutoff), R) > 10


@pytest.mark.parametrize("q,R0,cutoff", [(2.0, 10, 2.0), (6.0, 300, 1.5)])
def test_dual_matches_reference(q, R0, cutoff):
    """The dual kernel's points with |x0| <= R0 are the window scan's."""
    assert _assert_window("dual", _xi_args("dual", XI, q, cutoff), R0) > 10


@pytest.mark.parametrize("side, xi, q, R, cutoff", [
    ("primal", XI, 9.0, 38, 37.8),        # narrow x0 windows
    ("primal", XI_ROY, 0.5, 4, 3.9),      # wide x0 windows
    ("dual", XI, 9.0, 900, 0.07),         # cutoff < 1/2: most x0 have no point
    ("dual", XI_ROY, 0.5, 8, 3.9),        # several x1, x2 per x0
])
def test_kernel_order_contract(side, xi, q, R, cutoff):
    """Of each +-x the kernels return the one that a sign rule names (see
    `_kept`), not the one an order of visits meets first: on every point,
    and, against the window scan, on every point of the window."""
    args = _xi_args(side, xi, q, cutoff)
    pts, _ = got = COLLECT[side](*args)
    U = _terms(SIDES.index(side), *args[:4])[1].U
    assert all(_kept(SIDES.index(side), U, x) for x in pts)
    assert _assert_same_in_window(side, args, got, R) > 0


def _body_scale(side, xi, q, points=400):
    """The cutoff at which the side's body holds about `points` points: the
    primal body is a ball of radius c cut to a slab of width 2 c e^-q / |u|,
    the dual body a cylinder of radius c / |u| and length 2 c e^q."""
    u2 = 1 + xi * xi + xi ** 4
    vol = (min(4 * math.pi / 3, 2 * math.pi * math.exp(-q) / math.sqrt(u2)) if side == "primal"
           else 2 * math.pi * math.exp(q) / u2)
    return (points / vol) ** (1 / 3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIDES), st.sampled_from([XI, XI_ROY]), st.floats(0.0, 10.0),
       st.integers(0, 10), st.floats(0.02, 1.0))
def test_kernel_order_contract_random_windows(side, xi, q, R, t):
    """Bodies of up to about 400 points, cut to windows of radius R."""
    _assert_window(side, _xi_args(side, xi, q, t * _body_scale(side, xi, q)), R)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.sampled_from(SIDES), st.floats(0.0, 2.5),
       st.floats(0.05, 2.0))
def test_kernels_match_window_scan_random_bodies(builders, seed, side, q, t):
    """Whole bodies of the four seeds up to twice the candidates' third key."""
    body = _body(builders[seed], q, side)
    _assert_window(side, _args(body, int(t * _candidate_bound(builders[seed], q, side))))


def bruteforce_calls(builder, qs):
    """(kernel name, arguments, result) of every kernel call minima_bruteforce
    makes for builder at each q."""
    calls = []

    def recorded(name, kernel):
        def call(*args):
            calls.append((name, args, kernel(*args)))
            return calls[-1][2]
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in WINDOW_SCAN:
            mp.setattr(kernels, name, recorded(name, getattr(kernels, name)))
        for q in qs:
            paramgeo.minima_bruteforce(builder, mpmath.mpf(q))
    return calls


# window radii that hold the whole body on the oracle grid up to q = 9.5; at
# q = 17 the whole primal disc has 3 10^6 lines and the dual one 6 10^5 x0,
# more than a pure-Python scan affords, and the golden corpus pins the minima
WINDOW_CAP = {"collect_primal": 60, "collect_dual": 3000}


@pytest.mark.parametrize("seed", sorted(ORACLE_GRID))
def test_kernels_match_window_scan_on_oracle_grid(request, seed):
    """Every kernel call minima_bruteforce makes on the oracle grid returns
    the window scan's points and exact keys in the window of WINDOW_CAP."""
    builder = paramgeo.CandidateBuilder(request.getfixturevalue(seed), prec=256)
    calls = bruteforce_calls(builder, ORACLE_GRID[seed])
    assert len(calls) == 2 * len(ORACLE_GRID[seed])
    for name, args, got in calls:
        _assert_same_in_window(name.split("_")[1], args, got, WINDOW_CAP[name])


@pytest.mark.parametrize("family, q, side", [(bl_family(1, 2), 17.36, "dual"),
                                             (roy_family(2, 1, 2), 16.2, "primal")],
                         ids=["bl12-dual", "roy212-primal"])
def test_kernels_match_window_scan_at_float_cancellation(prog_twos, family, q, side):
    """The period-2 samples where the float64 lam of the candidates' third
    point on `side` was more than 10^-9 relative above its exact value: the
    kernel lists that point with its exact key, and both kernels match the
    window scan in the window of WINDOW_CAP."""
    builder = paramgeo.CandidateBuilder(make_bundle(family, prog_twos), prec=256)
    calls = {name: (args, got) for name, args, got in bruteforce_calls(builder, [q])}
    args, (pts, keys) = calls["collect_" + side]
    cand = paramgeo.minima_candidates(builder, mpmath.mpf(q))
    third = (cand.points, cand.dual_points)[SIDES.index(side)][2]
    listed = {_canonical(x): k for x, k in zip(pts, keys)}
    assert listed[_canonical(third)] == _terms(SIDES.index(side), *args[:4])[0](third)
    for name, (args, got) in calls.items():
        _assert_same_in_window(name.split("_")[1], args, got, WINDOW_CAP[name])


def test_collect_primal_filters(builders):
    """Nonzero points with key <= bound, with their exact keys, each the one
    of +-x whose first nonzero of (x1, x2, x0) is negative."""
    u, q, p, key, _ = body = _body(builders["bl12"], 9.0, "primal")
    bound = 4 * _candidate_bound(builders["bl12"], 9.0, "primal")
    pts, keys = _collect("primal", body, bound)
    assert len(pts) > 100 and keys == [key(x) for x in pts]
    assert all(not x.is_zero() and k <= bound for x, k in zip(pts, keys))
    assert all(next(c for c in (x.x1, x.x2, x.x0) if c) < 0 for x in pts)


def test_collect_dual_filters(builders):
    """The same on the dual side, with x0 U1 - x1 U0 > 0 (U = round(2^p u))."""
    u, q, p, key, terms = body = _body(builders["roy212"], 6.0, "dual")
    bound = 4 * _candidate_bound(builders["roy212"], 6.0, "dual")
    pts, keys = _collect("dual", body, bound)
    assert len(pts) > 40 and keys == [key(x) for x in pts]
    assert all(not x.is_zero() and k <= bound for x, k in zip(pts, keys))
    assert all(x.x0 * terms.U.x1 - x.x1 * terms.U.x0 > 0 for x in pts)


@pytest.mark.parametrize("collect, args", [(kernels.collect_primal, ("bl12", 9.0)),
                                           (kernels.collect_dual, ("roy212", 6.0))])
def test_overflow_past_cap(builders, monkeypatch, collect, args):
    """A box of _CAP cells is walked; one of more raises TooLarge before any
    point is met."""
    side = collect.__name__.split("_")[1]
    body = _body(builders[args[0]], args[1], side)
    bound = _candidate_bound(builders[args[0]], args[1], side)
    expected = _collect(side, body, bound)
    _, grams = kernels._reduced(body[4])
    cells = math.prod(2 * h + 1 for h in kernels._box(SIDES.index(side), grams, bound)[1])
    monkeypatch.setattr(kernels, "_CAP", cells)
    assert _collect(side, body, bound) == expected
    spans = []
    monkeypatch.setattr(kernels, "_span", lambda *a: spans.append(a))
    monkeypatch.setattr(kernels, "_CAP", cells - 1)
    with pytest.raises(kernels.TooLarge, match=f"{side} enumeration box has {cells} cells"):
        _collect(side, body, bound)
    assert spans == []


def test_enumeration_exact_past_2_53():
    """The terms 4((x0 - N x1)^2 + x2^2) and x1^2 with N = 2^60 + 1: the
    only points of key <= 1 are +-(N, 1, 0), which float64 would round to
    (2^60, 1, 0)."""
    N = 2 ** 60 + 1

    def terms(x, y):
        return 4 * ((x.x0 - N * x.x1) * (y.x0 - N * y.x1) + x.x2 * y.x2), x.x1 * y.x1

    flip = lambda x0, x1, x2: (x1, x2, x0) > (0, 0, 0)  # noqa: E731
    pts, keys = kernels._walk(0, kernels._reduced(terms), 1, flip)
    assert (pts, keys) == ([SymVec(-N, -1, 0)], [1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=9, max_size=9), st.integers(0, 60))
def test_lll_basis_is_unimodular_and_reduced(entries, shift):
    """_lll returns a unimodular H with H G H^T as the Gram it reports, and
    that Gram is size-reduced and satisfies Lovasz's condition at 99/100."""
    a = [entries[0:3], entries[3:6], entries[6:9]]
    assume(kernels._det(a) != 0)
    # a Gram of very different scales along its axes, like the kernels' bodies
    a[0] = [x << shift for x in a[0]]
    gram = [[sum(x * y for x, y in zip(r, s)) for s in a] for r in a]
    h, g = kernels._lll(gram)
    assert abs(kernels._det(h)) == 1
    assert g == [[sum(h[i][m] * gram[m][n] * h[j][n] for m in range(3) for n in range(3))
                  for j in range(3)] for i in range(3)]
    # Gram-Schmidt in exact rationals
    mu = [[Fraction(0)] * 3 for _ in range(3)]
    b = [Fraction(0)] * 3
    for i in range(3):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b[i] = g[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(3) for j in range(i))
    assert all(b[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * b[k - 1] for k in (1, 2))
