"""The symmetric-matrix sequence y_j, the dual sequence z_j, exact identity
verification, content/divisibility reports, and Fibonacci-case fans of
intermediate lattice points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .exactlin import IntMat2, SymVec
from .matseq import MatrixSequence


class BadIndex(ValueError):
    pass


class FibonacciOnly(ValueError):
    pass


class YSeq:
    """y_{-2} = w0 N^T, y_{-1} = w1 N, and for k >= 1, 0 <= l <= s_{k+1}:
    y_{t_k + l} = w_k^{l+1} w_{k-1} N_k  (N_k = N for even k, N^T for odd)."""

    def __init__(self, seq: MatrixSequence):
        self.seq = seq
        self.prog = seq.prog
        self.seed = seq.seed
        self._memo = {}
        self._det, self._wedge = {}, {}
        self._det_primes = abs(self.seed.w0.det() * self.seed.w1.det() * self.seed.det_N)

    def mat(self, i: int) -> IntMat2:
        if i in self._memo:
            return self._memo[i]
        if i < -2:
            raise BadIndex(f"y_i defined for i >= -2, got {i}")
        if i == -2:
            m = self.seed.w0 @ self.seed.N.transpose()
        elif i == -1:
            m = self.seed.w1 @ self.seed.N
        else:
            k, l = self.prog.block_of(i)
            m = self.seq.ladder(k, l + 1) @ self.seed.N_parity(k)
        if not m.is_symmetric():
            raise BadIndex(f"y_{i} = {m} is not symmetric (inadmissible seed?)")
        self._memo[i] = m
        return m

    def at(self, i: int) -> SymVec:
        return self.mat(i).sym_vec()

    def det(self, i: int) -> int:
        if i not in self._det:
            self._det[i] = self.mat(i).det()
        return self._det[i]

    def wedge(self, i: int, j: int) -> SymVec:
        """y_i ^ y_j for i < j, formed once per pair."""
        if (i, j) not in self._wedge:
            self._wedge[i, j] = self.at(i).wedge(self.at(j))
        return self._wedge[i, j]

    def content(self, i: int) -> int:
        # a content c > 1 has c^2 | det y_i = det(w_k)^{l+1} det(w_{k-1}) det N, so it
        # shares a prime with det w0 det w1 det N
        return 1 if gcd(self._det_primes, *self.at(i).as_tuple()) == 1 else self.at(i).content()


class ZSeq:
    """z_{t_k + l} = (y_{psi(t_{k+1})} wedge y_{t_k + l}) / det w_k for j >= -1
    (k = 0 gives only j = t_0 = -1), held as the integer numerator `num(j)`
    over the denominator `den(j)` = det w_k, never reduced."""

    def __init__(self, ys: YSeq):
        self.ys = ys
        self.seq = ys.seq
        self.prog = ys.prog
        self._memo = {}

    def _block(self, j: int) -> int:
        if j == -1:
            return 0
        if j < -1:
            raise BadIndex(f"z_j defined for j >= -1, got {j}")
        return self.prog.block_of(j)[0]

    def num(self, j: int) -> SymVec:
        if j not in self._memo:
            self._memo[j] = self.ys.wedge(self.prog.psi(self.prog.t(self._block(j) + 1)), j)
        return self._memo[j]

    def den(self, j: int) -> int:
        return self.seq.det(self._block(j))

    def integerized(self, j: int) -> SymVec:
        """det(w_2) * z_j, which is an integer vector for admissible seeds."""
        v, d = self.num(j) * self.seq.det(2), self.den(j)
        (q0, r0), (q1, r1), (q2, r2) = (divmod(x, d) for x in v.as_tuple())
        if r0 or r1 or r2:
            raise BadIndex(f"det(w_2) z_{j} is not integral")
        return SymVec(q0, q1, q2)


@dataclass
class Bundle:
    """Convenience aggregate: seed + program + matrix/y/z sequences."""

    seq: MatrixSequence
    ys: YSeq = field(init=False)
    zs: ZSeq = field(init=False)

    def __post_init__(self):
        self.ys = YSeq(self.seq)
        self.zs = ZSeq(self.ys)

    @property
    def seed(self):
        return self.seq.seed

    @property
    def prog(self):
        return self.seq.prog


def make_bundle(seed, prog) -> Bundle:
    return Bundle(MatrixSequence(seed, prog))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    checks: dict          # name -> number of instances verified
    failures: list        # (name, index-tuple, lhs, rhs)
    i_max: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        for name in sorted(self.checks):
            bad = [f for f in self.failures if f[0] == name]
            status = "ok" if not bad else f"FAIL ({len(bad)})"
            lines.append(f"{name:<28} {self.checks[name]:>6} instances  {status}")
        return "\n".join(lines)


def verify_identities(bundle: Bundle, i_max: int) -> IdentityReport:
    """Exact verification of the recurrence, wedge, determinant and
    coprimality identities for all indices up to i_max.

    Each big object is formed once: the w products come from the power ladder
    of `MatrixSequence`, det y_i from `YSeq.det`, and the y wedges of the z
    numerators and det3 triples from `YSeq.wedge`.  Each coprimality gcd is
    first taken against det w0 det w1.

    Not checked, as they cannot fail or repeat another instance:
    - commutation w_{k-1} w_k N_{k+1} = w_k w_{k-1} N_k: `MatrixSeed` requires
      w1 N, w0 N^T and w1 w0 N^T symmetric, which gives k = 1, and
      w_{k+1} = w_k^s w_{k-1} gives k + 1 from k;
    - the trace recurrence of the power ladder: it is Cayley-Hamilton;
    - the y recurrence across a block boundary: the block's last instance;
    - ladder coprimality at k = 1: the coprimality hypothesis itself.
    Nor are three families that follow from y recurrence instances (k, l) with
    t_k + l + 1 <= i_max, which are all checked.  Here d_k = det w_k, ^ is the
    exact cross product (bilinear, antisymmetric), and for j in block k the
    z numerator is n(j) = y_a ^ y_j with a = psi(t_{k+1}):
    - y wedge powers y_i ^ y_{i+1} = d_k^{l+1} y_psi(t_k) ^ y_{t_k}, i = t_k + l:
      y_i ^ (recurrence (k, l)) is y_i ^ y_{i+1} = d_k y_psi(i) ^ y_i, the claim
      at l = 0; at l >= 1, psi(i) = i - 1 and (k, l - 1) gives the rest;
    - the z recurrence inside block k, n(i + 1) = tr(w_k) n(i) - d_k y_a ^ y_psi(i)
      for i, i + 1 in block k: y_a ^ (recurrence (k, l)), term by term;
    - the z recurrence across a boundary, d_{k-1} n(t_{k+1}) = d_{k+1} (tr(w_{k-1})
      n(j) - d_{k-1} y_psi(t_k) ^ y_psi(j)), j = t_k - 1: by the wedge powers of
      block k, n(t_{k+1}) = y_{t_{k+1}-1} ^ y_{t_{k+1}} = d_k^{s_{k+1}} y_psi(t_k) ^ y_{t_k};
      y_psi(t_k) ^ (recurrence (k - 1, s_k - 1)) turns y_psi(t_k) ^ y_{t_k} into
      the bracket, and w_{k+1} = w_k^{s_{k+1}} w_{k-1} has det d_k^{s_{k+1}} d_{k-1}."""
    prog, seq, ys, zs = bundle.prog, bundle.seq, bundle.ys, bundle.zs
    seed = bundle.seed
    checks = {}
    failures = []

    def record(name, idx, lhs, rhs):
        checks[name] = checks.get(name, 0) + 1
        if lhs != rhs:
            failures.append((name, idx, lhs, rhs))

    k_hi = prog.block_of(i_max)[0] if i_max >= 0 else 0

    # palindromic square step: det(y_psi(j)) y_{j+1} = y_j adj(y_psi(j)) y_j, whose
    # right side is tr(Y adj P) Y - det(Y) P for any 2x2 Y, P: X + adj(X) = tr(X) I
    # with X = adj(P) Y gives adj(P) Y = tr(X) I - adj(Y) P, and Y adj(Y) = det(Y) I
    for j in range(0, i_max):
        y, yp = ys.mat(j), ys.mat(prog.psi(j))
        tr = y.a * yp.d - y.b * yp.c - y.c * yp.b + y.d * yp.a
        record("square_step", (j,), ys.det(prog.psi(j)) * ys.mat(j + 1), tr * y - ys.det(j) * yp)

    # (a) three-term recurrence inside a block: k >= 1, 0 <= l < s_{k+1}
    for k in range(1, k_hi + 1):
        tk, dk = seq.tr(k), seq.det(k)
        for l in range(prog.s(k + 1)):
            i = prog.t(k) + l
            if i + 1 > i_max:
                break
            record("y_recurrence_block", (k, l),
                   ys.at(i + 1),
                   tk * ys.at(i) - dk * ys.at(prog.psi(i)))

    # (b) determinant of consecutive triples at block starts: k >= 0
    for k in range(0, k_hi + 1):
        i = prog.t(k)
        if i + 1 > i_max:
            break
        record("det3_triple", (k,),
               ys.at(i - 1).dot(ys.wedge(i, i + 1)),
               -seq.det(k) * ys.det(i) * seed.N_parity(k + 1).tr_J())

    # (c) dual wedge identity z_{t_{k+1}} ^ z_i = det N Tr(J N_{k+1}) y_i,
    # multiplied through by det w_{k+1} det w_k: k >= 0, 0 <= l < s_{k+1}
    for k in range(0, k_hi + 1):
        j = prog.t(k + 1)
        c = seed.det_N * seed.N_parity(k + 1).tr_J() * seq.det(k + 1) * seq.det(k)
        for l in range(prog.s(k + 1)):
            i = prog.t(k) + l
            if i > i_max or j > i_max + 1:
                break
            record("z_wedge", (k, l), zs.num(j).wedge(zs.num(i)), c * ys.at(i))

    # coprimality package (only when its hypotheses hold)
    def ladder_trace(k, l):
        if l <= prog.s(k + 1):
            return seq.ladder(k, l).trace()
        # the top rung w_k^{s+1} w_{k-1} = w_k w_{k+1} has the trace of w_{k+1} w_k =
        # ladder(k + 1, 1), built for the y of block k + 1 when k < k_hi
        if k < k_hi:
            return seq.ladder(k + 1, 1).trace()
        a, b = seq.w(k), seq.w(k + 1)
        return a.a * b.a + a.b * b.c + a.c * b.b + a.d * b.d

    def ladder_gcd(k, l):
        # det(w_k^l w_{k-1}) = det(w_k)^l det(w_{k-1}), whose primes all divide det w0 det w1
        tr = ladder_trace(k, l)
        if gcd(tr, seq.det(0) * seq.det(1)) == 1:
            return 1
        return gcd(tr, abs(seq.det(k) ** l * seq.det(k - 1)))

    hyp = gcd(seq.tr(1), abs(seq.det(1))) == 1 and all(
        ladder_gcd(1, l) == 1 for l in range(prog.s(2) + 2))
    checks["coprimality_hypothesis"] = 1
    if hyp:
        for k in range(2, k_hi + 1):
            for l in range(prog.s(k + 1) + 2):
                # the content divides gcd(tr, det), so coprime ladders are primitive
                record("ladder_coprime", (k, l), ladder_gcd(k, l), 1)
    return IdentityReport(checks=checks, failures=failures, i_max=i_max)


# ---------------------------------------------------------------------------
# contents
# ---------------------------------------------------------------------------

@dataclass
class ContentsReport:
    y_contents: dict        # i -> content(y_i)
    y_divides_detN: bool
    z_integral: bool        # det(w_2) z_j integral for all tested j
    z_divides_bound: bool   # contents divide det(w2)^2 det(N)^2 |Tr(JN)| (when nonzero)
    content_bound: int      # |det(w2)^2 det(N)^2 Tr(JN)|
    i_max: int


def contents_report(bundle: Bundle, i_max: int) -> ContentsReport:
    seq, ys, zs, seed = bundle.seq, bundle.ys, bundle.zs, bundle.seed
    dN = abs(seed.det_N)
    y_contents = {i: ys.content(i) for i in range(-2, i_max + 1)}
    y_div = all(dN % c == 0 for c in y_contents.values())
    bound = seq.det(2) ** 2 * seed.det_N ** 2 * abs(seed.tr_JN)
    z_integral = True
    z_div = True
    for j in range(0, i_max + 1):
        try:
            v = zs.integerized(j)
        except BadIndex:
            z_integral = False
            continue
        c = v.content()
        if bound == 0 or bound % c != 0:
            z_div = False
    return ContentsReport(
        y_contents=y_contents,
        y_divides_detN=y_div,
        z_integral=z_integral,
        z_divides_bound=z_div,
        content_bound=abs(bound),
        i_max=i_max,
    )


# ---------------------------------------------------------------------------
# fans of intermediate points (Fibonacci programs)
# ---------------------------------------------------------------------------

@dataclass
class GrayFan:
    i: int
    quotients: list         # partial quotients of tr(w_{i+1}) / det(w_{i+1})
    points: list            # x_m as SymVec, m = -1 .. r
    contents: list          # content(x_m)
    endpoints_ok: bool      # x_{-1} = y_i and x_r = y_{i+1}
    recurrence_ok: bool
    wedge_ok: bool          # x_m wedge x_{m+1} = +- d_i z_{i+1}
    content_pairs_ok: bool  # c_m c_{m+1} | d_i, the literal statement; informational
    # only: it fails for roy(2,1,2) at i = 3 (contents [1, 2, 1, 1, 16, 1], d_3 = 8)
    content_pairs_relaxed_ok: bool  # c_m c_{m+1} | content(d_i z_{i+1}) (what the
    # wedge identity actually gives: content(x_m ^ x_{m+1}) = content(d_i z_{i+1}),
    # which exceeds |d_i| when z_{i+1} is not primitive); implied by wedge_ok
    content_gcd_ok: bool    # gcd(c_m, c_{m+1}) | content(y_i)
    decomposition_ok: bool  # d_{i+2} x_m = alpha_m y_i + beta_m y_{i+1}

    @property
    def ok(self) -> bool:
        """All proved properties hold; the literal `content_pairs_ok` is not one."""
        return (self.endpoints_ok and self.recurrence_ok and self.wedge_ok
                and self.content_pairs_relaxed_ok and self.content_gcd_ok
                and self.decomposition_ok)


def gray_fan(bundle: Bundle, i: int) -> GrayFan:
    """The fan of lattice points between y_i and y_{i+1} obtained from the
    continued fraction of tr(w_{i+1}) / det(w_{i+1}); only meaningful when the
    program is all-ones (t_k = k - 1, three-term recurrence with step -2)."""
    prog, seq, ys, zs = bundle.prog, bundle.seq, bundle.ys, bundle.zs
    if not prog.is_fibonacci:
        raise FibonacciOnly("fans require the all-ones program")
    if i < 2:
        raise BadIndex(f"fan needs i >= 2, got {i}")
    t_next, d_next = seq.tr(i + 1), seq.det(i + 1)
    d_i = seq.det(i)
    if d_next <= 0:
        raise BadIndex(f"det w_{i + 1} = {d_next} must be positive for the fan")
    # continued fraction of t_next / d_next
    quotients = []
    num, den = t_next, d_next
    while den:
        quotients.append(num // den)
        num, den = den, num - (num // den) * den
    reduced = gcd(t_next, d_next) == 1
    # convergents p_m / q_m, m = -1 .. r
    conv = [(1, 0)]
    p_prev, q_prev = 0, 1
    for a in quotients:
        p, q = conv[-1]
        conv.append((a * p + p_prev, a * q + q_prev))
        p_prev, q_prev = p, q
    yi, yi1 = ys.at(i), ys.at(i + 1)
    yim2 = ys.at(i - 2)
    points = [p * yi - q * yim2 for p, q in conv]
    endpoints_ok = points[0] == yi and (not reduced or points[-1] == yi1)
    # x_0 = a_0 x_{-1} - y_{i-2}, then x_{m+1} = a_{m+1} x_m + x_{m-1}
    recurrence_ok = points[1] == quotients[0] * points[0] - yim2 and all(
        points[m] == quotients[m - 1] * points[m - 1] + points[m - 2]
        for m in range(2, len(points)))
    # wedge invariant: x_m wedge x_{m+1} = +- d_i z_{i+1}, times den(i + 1)
    z_next, z_den = d_i * zs.num(i + 1), zs.den(i + 1)
    wedge_ok = True
    for m in range(len(points) - 1):
        w = z_den * points[m].wedge(points[m + 1])
        if not (w == z_next or w == -z_next):
            wedge_ok = False
    contents = [v.content() for v in points]
    cy = ys.content(i)
    content_pairs_ok = all(abs(d_i) % (contents[m] * contents[m + 1]) == 0
                           for m in range(len(contents) - 1))
    # x_{-1} ^ x_0 = y_{i-2} ^ y_i, so wedge_ok makes every x_m ^ x_{m+1} equal
    # +-d_i z_{i+1}; the content of a ^ b is a multiple of content(a) content(b),
    # so the relaxed divisibility follows from wedge_ok
    content_pairs_relaxed_ok = wedge_ok
    content_gcd_ok = all(cy % gcd(contents[m], contents[m + 1]) == 0
                         for m in range(len(contents) - 1))
    # integer decomposition over (y_i, y_{i+1}):
    # d_{i+2} x_m = alpha_m y_i + beta_m y_{i+1},
    # alpha_m = d_i (d_{i+1} p_m - t_{i+1} q_m), beta_m = d_i q_m
    d_i2 = d_next * d_i
    decomposition_ok = all(
        d_i2 * x == d_i * (d_next * p - t_next * q) * yi + d_i * q * yi1
        for (p, q), x in zip(conv, points))
    return GrayFan(
        i=i,
        quotients=quotients,
        points=points,
        contents=contents,
        endpoints_ok=endpoints_ok,
        recurrence_ok=recurrence_ok,
        wedge_ok=wedge_ok,
        content_pairs_ok=content_pairs_ok,
        content_pairs_relaxed_ok=content_pairs_relaxed_ok,
        content_gcd_ok=content_gcd_ok,
        decomposition_ok=decomposition_ok,
    )

