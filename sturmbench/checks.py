"""Reference computations made apart from sturmlab, and the checks that hold
each answer of a workload against them.

Nothing in this module imports sturmlab.  The references are rebuilt from the
definitions in the paper with Python integers, Fractions and mpmath:

* the seed matrices of the roy and bl families and the recurrence
  w_{k+1} = w_k^{s_{k+1}} w_{k-1};
* xi for a bl seed as the continued fraction whose partial quotients are the
  letters of the Sturmian characteristic word, enclosed between consecutive
  convergents;
* xi for a roy seed as the common limit of the column ratios of w_k, enclosed
  between the two column ratios of one w_k (the entries are positive, so each
  column of w_{k+1} is a positive combination of the columns of w_k and the
  enclosures are nested);
* the parametric trajectories L_x(q) = max(log|x|, log|x.u| + q) and
  L*_x(q) = max(log|x ^ u|, log|x| - q), u = (1, xi, xi^2);
* Minkowski's second theorem for the two convex bodies, with their volumes in
  closed form, and Mahler's duality bound between them;
* the exponents of the Fibonacci case from the golden ratio.

Every check returns a list of problems; an empty list means the answer holds.
"""
from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath

_PROGRAM_RE = re.compile(r"^\s*prefix\s*=\s*\[([^\]]*)\]\s*;\s*period\s*=\s*\[([^\]]*)\]\s*$")


# ---------------------------------------------------------------------------
# programs, seeds and the matrix recurrence
# ---------------------------------------------------------------------------

class Program:
    """s_0 = -1, s_1 = 1, then an eventually periodic sequence."""

    def __init__(self, text: str):
        m = _PROGRAM_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse program {text!r}")
        self.prefix = [int(v) for v in m.group(1).split(",")]
        self.period = [int(v) for v in m.group(2).split(",")]

    def s(self, k: int) -> int:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.period[(k - len(self.prefix)) % len(self.period)]

    def growth_root(self) -> float:
        """Root > 1 of x^2 = s x + 1 for a constant period s: the ratio by
        which log|w_k| (and every breakpoint abscissa) grows per step."""
        if len(set(self.period)) != 1:
            raise ValueError("growth_root needs a constant period")
        s = self.period[0]
        return (s + math.sqrt(s * s + 4)) / 2


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(x) -> int:
    return x[0] * x[3] - x[1] * x[2]


def seed_matrices(family: str, params):
    """(w0, w1, det_base): |det w_k| = det_base^{f_k} for every k."""
    if family == "roy":
        a, b, c = params
        return (1, b, a, a * (b + 1)), (1, c, a, a * (c + 1)), a
    if family == "bl":
        a, b, s1 = params
        A, B = (a, 1, 1, 0), (b, 1, 1, 0)
        w1 = A
        for _ in range(s1 - 1):
            w1 = mat_mul(B, w1)
        return B, w1, 1
    raise ValueError(f"unknown family {family!r}")


def w_sequence(w0, w1, prog: Program, k_max: int):
    """[w_0, ..., w_{k_max}] by w_{k+1} = w_k^{s_{k+1}} w_{k-1}."""
    ws = [w0, w1]
    while len(ws) <= k_max:
        k = len(ws) - 1
        m = ws[k - 1]
        for _ in range(prog.s(k + 1)):
            m = mat_mul(ws[k], m)
        ws.append(m)
    return ws


def det_exponents(prog: Program, k_max: int):
    """f_0 = f_1 = 1, f_{k+1} = s_{k+1} f_k + f_{k-1}."""
    f = [1, 1]
    while len(f) <= k_max:
        k = len(f) - 1
        f.append(prog.s(k + 1) * f[k] + f[k - 1])
    return f


def check_deep_w(family, params, prog_text, k, program_w) -> list:
    """The program's w_k equals the reference product, and |det w_k| is the
    power of the seed determinant that the recurrence forces."""
    prog = Program(prog_text)
    w0, w1, base = seed_matrices(family, params)
    wk = w_sequence(w0, w1, prog, k)[k]
    problems = []
    if tuple(program_w) != wk:
        problems.append(f"w_{k} differs from the reference product")
    if abs(mat_det(wk)) != base ** det_exponents(prog, k)[k]:
        problems.append(f"|det w_{k}| != {base}^f_{k}")
    return problems


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------

def bl_xi_enclosure(a: int, b: int, s1: int, prog: Program, bits: int):
    """[0; u_1, u_2, ...] with u the characteristic word m_0 = b,
    m_1 = b^{s1-1} a, m_{k+1} = m_k^{s_{k+1}} m_{k-1}; returns two consecutive
    convergents, which enclose xi, at distance below 2^-bits."""
    target = 1 << bits
    prev, cur, k = [b], [b] * (s1 - 1) + [a], 1
    while True:
        while len(cur) < 2 * bits + 16:
            prev, cur, k = cur, cur * prog.s(k + 1) + prev, k + 1
        p0, q0, p1, q1 = 1, 0, 0, 1
        for u in cur:
            p0, q0, p1, q1 = p1, q1, u * p1 + p0, u * q1 + q0
            if q0 and q0 * q1 > target:
                x, y = Fraction(p0, q0), Fraction(p1, q1)
                return min(x, y), max(x, y)
        prev, cur, k = cur, cur * prog.s(k + 1) + prev, k + 1


def roy_xi_enclosure(a: int, b: int, c: int, prog: Program, bits: int):
    """The two column ratios (row 1 over row 0) of w_k for the first k at
    which they are closer than 2^-bits."""
    w0, w1, _ = seed_matrices("roy", (a, b, c))
    target = Fraction(1, 1 << bits)
    k = 8
    while True:
        wk = w_sequence(w0, w1, prog, k)[k]
        r0, r1 = Fraction(wk[2], wk[0]), Fraction(wk[3], wk[1])
        lo, hi = min(r0, r1), max(r0, r1)
        if hi - lo < target:
            return lo, hi
        k += 4


def xi_enclosure(family, params, prog_text, bits):
    prog = Program(prog_text)
    if family == "bl":
        return bl_xi_enclosure(*params, prog, bits)
    return roy_xi_enclosure(*params, prog, bits)


def _round_sig(x: Fraction, digits: int) -> Fraction:
    """x > 0 rounded half-even to `digits` significant decimal digits."""
    e = 0
    while Fraction(10) ** e <= x:
        e += 1
    while Fraction(10) ** (e - 1) > x:
        e -= 1
    scale = Fraction(10) ** (digits - e)
    return Fraction(round(x * scale)) / scale


def check_xi_digits(stdout: str, lo: Fraction, hi: Fraction, digits: int) -> list:
    """The `xi = ...` line of `sturmlab xi` is xi rounded to `digits`
    significant digits.  When the enclosure straddles a rounding boundary
    either neighbour is accepted."""
    m = re.search(r"^xi = (\S+)$", stdout, re.M)
    if not m:
        return ["no `xi = ...` line in the output"]
    printed = Fraction(Decimal(m.group(1)))
    expected = {_round_sig(lo, digits), _round_sig(hi, digits)}
    if printed not in expected:
        return [f"printed xi differs from the reference at {digits} digits"]
    return []


def xi_float(lo: Fraction, hi: Fraction, prec: int):
    with mpmath.workprec(prec):
        mid = (lo + hi) / 2
        return mpmath.mpf(mid.numerator) / mid.denominator


# ---------------------------------------------------------------------------
# verify and xi reports
# ---------------------------------------------------------------------------

def check_verify_report(data: dict) -> list:
    problems = [f"{key} is not true" for key in ("identities_ok", "contents_ok", "growth_ok")
                if data.get(key) is not True]
    checks = data.get("checks") or {}
    if not checks or min(checks.values()) < 1:
        problems.append("no identity instances were checked")
    return problems


# ---------------------------------------------------------------------------
# successive minima
# ---------------------------------------------------------------------------

def det3(x, y, z) -> int:
    return (x[0] * (y[1] * z[2] - y[2] * z[1]) - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0]))


def trajectories(x, q, xi):
    """(L_x(q), L*_x(q)) at the current mpmath precision."""
    u1, u2 = xi, xi * xi
    x0, x1, x2 = (mpmath.mpf(int(v)) for v in x)
    ln = mpmath.log(x0 * x0 + x1 * x1 + x2 * x2) / 2
    dot = abs(x0 + x1 * u1 + x2 * u2)
    w = (x1 * u2 - x2 * u1) ** 2 + (x2 - x0 * u2) ** 2 + (x0 * u1 - x1) ** 2
    primal = max(ln, mpmath.log(dot) + q) if dot else ln
    dual = max(mpmath.log(w) / 2, ln - q) if w else ln - q
    return primal, dual


def minkowski_bounds(q, xi):
    """Bounds on L1+L2+L3 and on L*1+L*2+L*3 from Minkowski's second theorem
    (4/3)/vol <= lambda1 lambda2 lambda3 <= 8/vol for the lattice Z^3.

    Primal body {|x| <= 1, |x.u| <= e^-q}: a unit ball cut by a slab of
    half-width h = e^-q/|u|, of volume 2 pi (h - h^3/3) (for h <= 1).
    Dual body {|x ^ u| <= 1, |x| <= e^q}: a cylinder of radius r = 1/|u| about
    u cut by the ball of radius R = e^q, of volume
    (4 pi / 3)(R^3 - (R^2 - r^2)^{3/2}) (for r <= R)."""
    n = mpmath.sqrt(1 + xi ** 2 + xi ** 4)
    h = mpmath.exp(-q) / n
    if h > 1:
        raise ValueError("slab wider than the ball")
    vol = 2 * mpmath.pi * (h - h ** 3 / 3)
    R, r = mpmath.exp(q), 1 / n
    if r > R:
        raise ValueError("cylinder wider than the ball")
    # R^3 - (R^2 - r^2)^{3/2} without the cancellation at large q
    dvol = -4 * mpmath.pi / 3 * R ** 3 * mpmath.expm1(1.5 * mpmath.log1p(-(r / R) ** 2))
    four_thirds = mpmath.mpf(4) / 3
    return ((mpmath.log(four_thirds / vol), mpmath.log(8 / vol)),
            (mpmath.log(four_thirds / dvol), mpmath.log(8 / dvol)))


def mahler_bounds(xi):
    """Bounds on L_j + L*_{4-j}.  The polar K° of the primal body is the hull
    of the unit ball and the segment [-e^q u, e^q u]; it satisfies
    K° ⊂ |u| D and D ⊂ (2/|u|) K° for the dual body D, so Mahler's
    1 <= lambda_j(K) lambda_{4-j}(K°) <= 3! gives
    log(|u|/2) <= L_j + L*_{4-j} <= log(6 |u|)."""
    n = mpmath.sqrt(1 + xi ** 2 + xi ** 4)
    return mpmath.log(n / 2), mpmath.log(6 * n)


def check_minima(q, L, Lstar, points, dual_points, xi_lo, xi_hi, prec,
                 exact=False, tol="1e-30") -> list:
    """A sample of the successive minima at q.

    Always: L and L* are nondecreasing, each triple of points is independent
    (exact integer determinant), the reported values equal the trajectories
    recomputed from the points with the reference xi, and the sums respect
    Minkowski's lower bound.  For exact minima (`exact=True`) also Minkowski's
    upper bound and Mahler's bound on L_j + L*_{4-j}."""
    problems = []
    with mpmath.workprec(prec + 64):
        tol = mpmath.mpf(tol)
        xi = xi_float(xi_lo, xi_hi, prec + 64)
        q = mpmath.mpf(q)
        L = [mpmath.mpf(v) for v in L]
        Lstar = [mpmath.mpf(v) for v in Lstar]
        for name, vals in (("L", L), ("L*", Lstar)):
            if not (vals[0] <= vals[1] <= vals[2]):
                problems.append(f"{name} is not nondecreasing")
        for name, pts in (("points", points), ("dual points", dual_points)):
            if det3(*pts) == 0:
                problems.append(f"the {name} are dependent")
        for j in range(3):
            if abs(trajectories(points[j], q, xi)[0] - L[j]) > tol:
                problems.append(f"L_{j + 1} differs from its point's trajectory")
            if abs(trajectories(dual_points[j], q, xi)[1] - Lstar[j]) > tol:
                problems.append(f"L*_{j + 1} differs from its point's trajectory")
        (lo, hi), (dlo, dhi) = minkowski_bounds(q, xi)
        if sum(L) < lo - tol:
            problems.append("L1+L2+L3 below Minkowski's lower bound")
        if sum(Lstar) < dlo - tol:
            problems.append("L*1+L*2+L*3 below Minkowski's lower bound")
        if exact:
            if sum(L) > hi + tol:
                problems.append("L1+L2+L3 above Minkowski's upper bound")
            if sum(Lstar) > dhi + tol:
                problems.append("L*1+L*2+L*3 above Minkowski's upper bound")
            mlo, mhi = mahler_bounds(xi)
            for j in range(3):
                s = L[j] + Lstar[2 - j]
                if not (mlo - tol <= s <= mhi + tol):
                    problems.append(f"L_{j + 1} + L*_{3 - j} outside Mahler's bound")
    return problems


def check_oracle_below_candidate(brute_L, brute_Lstar, cand_L, cand_Lstar,
                                 tol=1e-30) -> list:
    """Exact minima never exceed the candidate upper bounds."""
    problems = []
    for j in range(3):
        # differences, so that no operand is rounded to the working precision
        if brute_L[j] - cand_L[j] > tol:
            problems.append(f"brute-force L_{j + 1} above the candidate L_{j + 1}")
        if brute_Lstar[j] - cand_Lstar[j] > tol:
            problems.append(f"brute-force L*_{j + 1} above the candidate L*_{j + 1}")
    return problems


def check_duality_report(per_j: dict, xi_lo, xi_hi) -> list:
    with mpmath.workprec(128):
        lo, hi = mahler_bounds(xi_float(xi_lo, xi_hi, 128))
        bound = max(-lo, hi)
    return [f"max |L_{j} + L*_{4 - j}| = {per_j[j]:.4f} exceeds Mahler's {float(bound):.4f}"
            for j in (1, 2, 3) if not per_j[j] <= bound]


# ---------------------------------------------------------------------------
# breakpoints and exponents
# ---------------------------------------------------------------------------

def check_breakpoint_growth(q_t, root: float, tol: float) -> list:
    """Consecutive q_t abscissas grow by the root of x^2 = s x + 1."""
    qs = [float(q) for q in sorted(q_t)]
    if len(qs) < 3:
        return ["fewer than three q_t breakpoints"]
    ratio = qs[-1] / qs[-2]
    if abs(ratio - root) > tol:
        return [f"q_t ratio {ratio:.5f} is not {root:.5f}"]
    return []


def golden_exponents() -> dict:
    """The Fibonacci case from gamma = (1+sqrt5)/2: omega2 = 1 + 2 gamma,
    omega2_hat = gamma^2, lambda2 = 1, lambda2_hat = 1/gamma, and the
    parametric exponents psi = 1/(1+omega), psi = lambda/(1+lambda),
    psi2_up = 1/(2 + 1/gamma) = 1/gamma^2."""
    with mpmath.workprec(256):
        g = (1 + mpmath.sqrt(5)) / 2
        std = {"omega2": 1 + 2 * g, "omega2_hat": g * g, "lambda2": mpmath.mpf(1),
               "lambda2_hat": 1 / g}
        return dict(std, psi1_low=1 / (1 + std["omega2"]),
                    psi1_up=1 / (1 + std["omega2_hat"]),
                    psi2_up=1 / (g * g),
                    psi3_low=std["lambda2_hat"] / (1 + std["lambda2_hat"]),
                    psi3_up=std["lambda2"] / (1 + std["lambda2"]))


EMPIRICAL_NAMES = ("psi1_low", "psi1_up", "psi2_up", "psi3_low", "psi3_up")


def check_exponents(empirical: dict, closed: dict, tol: float = 0.02) -> list:
    """Closed forms equal the golden-ratio values; each empirical exponent is
    within `tol` of them."""
    ref = golden_exponents()
    with mpmath.workprec(256):
        problems = [f"closed-form {name} is not the golden-ratio value"
                    for name in ref if name in closed
                    and abs(closed[name] - ref[name]) > mpmath.mpf("1e-30")]
    problems += [f"closed form lacks {name}" for name in ref if name not in closed]
    for name in EMPIRICAL_NAMES:
        dev = abs(float(empirical[name]) - float(ref[name]))
        if not dev <= tol:
            problems.append(f"empirical {name} is {dev:.4f} from the golden-ratio value")
    return problems
