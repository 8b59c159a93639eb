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

    def _product(self, i: int, ladder) -> IntMat2:
        """y_i with the rung read from `ladder`, a power ladder of `self.seq`."""
        if i < -2:
            raise BadIndex(f"y_i defined for i >= -2, got {i}")
        if i == -2:
            return self.seed.w0 @ self.seed.N.transpose()
        if i == -1:
            return self.seed.w1 @ self.seed.N
        k, l = self.prog.block_of(i)
        return ladder(k, l + 1) @ self.seed.N_parity(k)

    def mat(self, i: int) -> IntMat2:
        if i in self._memo:
            return self._memo[i]
        m = self._product(i, self.seq.ladder)
        if not m.is_symmetric():
            raise BadIndex(f"y_{i} = {m} is not symmetric (inadmissible seed?)")
        self._memo[i] = m
        return m

    def at(self, i: int) -> SymVec:
        return self.mat(i).sym_vec()

    def content(self, i: int) -> int:
        # a content c > 1 has c^2 | det y_i = det(w_k)^{l+1} det(w_{k-1}) det N, so it
        # shares a prime with P = seq.modulus, and gcd(P, y_i mod P) = gcd(P, y_i),
        # with y_i mod P built from the residue ladder `seq.residues`
        if self.seq.modulus == 1 and i >= -2:     # P has no prime (every bl seed)
            return 1
        r = self._product(i, self.seq.residues.ladder)
        return 1 if gcd(self.seq.modulus, r.a, r.b, r.d) == 1 else self.at(i).content()


class ZSeq:
    """z_j = (y_{t_k - 1} ^ y_j) / det w_k for j = t_k + l >= 0 (block k >= 1,
    0 <= l < s_{k+1}), formed as a fixed linear image of y_psi(j):

        z_j = (b p2 - d p1, d p0 + (c - b) p1 - a p2, a p1 - c p0),

    with (a, b, c, d) = N_{k+1} and p = y_psi(j).  So z_j is an integer vector.
    Proof: (C) and (B) of `verify_identities` give y_{t_k - 1} = w_k N_{k+1} and
    y_j = w_k y_psi(j).  For symmetric X and Y, X ^ Y is read off X J Y as
    (-[XJY]_11, [XJY]_01 + [XJY]_10, -[XJY]_00), and M^T J M = det(M) J for every
    2x2 M.  With X = y_{t_k - 1} = X^T = N_{k+1}^T w_k^T this gives
    X J y_j = N_{k+1}^T (w_k^T J w_k) y_psi(j) = d_k N_{k+1}^T J y_psi(j), whose
    read-off is d_k times the vector above.  The map p -> z_j has determinant
    (b - c)(ad - bc) = tr_J(N_{k+1}) det N, nonzero when Tr(JN) != 0."""

    def __init__(self, ys: YSeq):
        self.ys = ys
        self.seq = ys.seq
        self.prog = ys.prog
        self._memo = {}

    def z(self, j: int) -> SymVec:
        if j not in self._memo:
            if j < 0:
                raise BadIndex(f"z_j defined for j >= 0, got {j}")
            n = self.ys.seed.N_parity(self.prog.block_of(j)[0] + 1)
            p0, p1, p2 = self.ys.at(self.prog.psi(j)).as_tuple()
            self._memo[j] = SymVec(n.b * p2 - n.d * p1, n.d * p0 + (n.c - n.b) * p1 - n.a * p2,
                                   n.a * p1 - n.c * p0)
        return self._memo[j]

    def integerized(self, j: int) -> SymVec:
        """det(w_2) * z_j."""
        return self.z(j) * self.seq.det(2)


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
    hypothesis_holds: bool  # the coprimality hypothesis, under which ladder_coprime is checked

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        for name in sorted(self.checks):
            bad = [f for f in self.failures if f[0] == name]
            status = "ok" if not bad else f"FAIL ({len(bad)})"
            if name == "coprimality_hypothesis" and not self.hypothesis_holds:
                status = "does not hold; ladder_coprime not checked"
            lines.append(f"{name:<28} {self.checks[name]:>6} instances  {status}")
        return "\n".join(lines)


# the identity families that `verify_identities` proves instead of checking
PROVED = ("commutation", "ladder_trace_recurrence", "y_recurrence_block", "square_step",
          "y_wedge_power", "z_recurrence_block", "z_recurrence_boundary", "det3_triple",
          "z_wedge")


def verify_identities(bundle: Bundle, i_max: int) -> IdentityReport:
    """Exact check of the coprimality hypothesis and, where it holds, of the
    coprimality of every ladder rung up to i_max.

    Each gcd is first taken between d_0 d_1 (d_k = det w_k) and the trace of
    the rung's residue mod P = |det w0 det w1 det N| (`MatrixSequence.residues`,
    stepped by w_{k+1} = w_k^{s_{k+1}} w_{k-1} mod P).  As d_0 d_1 divides P, that
    gcd is gcd(tr, d_0 d_1); every prime of the rung's determinant d_k^l d_{k-1}
    divides d_0 d_1, since d_{k+1} = d_k^{s_{k+1}} d_{k-1}, so when it is 1 so is
    gcd(tr, d_k^l d_{k-1}).  Only otherwise is the rung formed in full, and
    its determinant read off `MatrixSequence.dets`.

    Not formed, as they cannot fail (the families of `PROVED`) or repeat
    another instance.  Here d_k = det w_k, N_k = N for even k and N^T for odd k,
    ^ is the exact cross product (bilinear, antisymmetric), and i = t_k + l
    with k >= 1, 0 <= l < s_{k+1}:
    - commutation w_{k-1} w_k N_{k+1} = w_k w_{k-1} N_k: `MatrixSeed` requires
      w1 N, w0 N^T and w1 w0 N^T symmetric, which gives k = 1, and
      w_{k+1} = w_k^s w_{k-1} gives k + 1 from k;
    - the trace recurrence of the power ladder: it is Cayley-Hamilton;
    - ladder coprimality at k = 1: the coprimality hypothesis itself.
    `YSeq` builds y_i = w_k^{l+1} w_{k-1} N_k from the power ladder, which gives
    three matrix identities:
    - (A) y_{i+1} = w_k y_i: for l + 1 < s_{k+1} both sides are the ladder
      product w_k^{l+2} w_{k-1} N_k; at l + 1 = s_{k+1}, commutation gives
      y_{t_{k+1}} = w_{k+1} w_k N_{k+1} = w_k w_{k+1} N_k, and
      w_{k+1} = w_k^{s_{k+1}} w_{k-1};
    - (B) y_i = w_k y_psi(i): for l >= 1, psi(i) = i - 1 and this is (A) at
      l - 1; for l = 0, y_psi(t_k) = y_{t_{k-1}-1} is w_{k-1} N_k (for k >= 3 the
      last y of block k - 2, w_{k-2}^{s_{k-1}} w_{k-3} N_{k-2}; y_{-2} = w0 N^T
      and y_{-1} = w1 N at k = 1, 2), so y_{t_k} = w_k w_{k-1} N_k is w_k y_psi(t_k);
    - (C) y_{t_k - 1} adj(N_{k+1}) y_psi(t_k) = det(N) y_{t_k}: y_{t_k - 1} is
      w_k N_{k+1} (for k >= 2 the last y of block k - 1, w_{k-1}^{s_k} w_{k-2} N_{k-1}
      with N_{k-1} = N_{k+1}; y_{-1} = w1 N at k = 1), y_psi(t_k) = w_{k-1} N_k as
      in (B), and N_{k+1} adj(N_{k+1}) = det(N) I.
    Hence:
    - the y recurrence (k, l), y_{i+1} = tr(w_k) y_i - d_k y_psi(i): by (A)
      and (B), y_{i+1} = w_k^2 y_psi(i), and Cayley-Hamilton gives
      w_k^2 = tr(w_k) w_k - d_k I;
    - the square step det(y_psi(j)) y_{j+1} = y_j adj(y_psi(j)) y_j, j >= 0:
      by (B), y_j adj(y_psi(j)) = w_k y_psi(j) adj(y_psi(j)) = det(y_psi(j)) w_k,
      and by (A), det(y_psi(j)) w_k y_j = det(y_psi(j)) y_{j+1}.
    Three more families follow from the y recurrence (k, l), which therefore
    holds at every (k, l).  For j in block k the z numerator is n(j) = y_a ^ y_j
    = d_k z_j (`ZSeq`) with a = psi(t_{k+1}) = t_k - 1:
    - y wedge powers y_i ^ y_{i+1} = d_k^{l+1} y_psi(t_k) ^ y_{t_k}, i = t_k + l:
      y_i ^ (recurrence (k, l)) is y_i ^ y_{i+1} = d_k y_psi(i) ^ y_i, the claim
      at l = 0; at l >= 1, psi(i) = i - 1 and (k, l - 1) gives the rest;
    - the z recurrence inside block k, n(i + 1) = tr(w_k) n(i) - d_k y_a ^ y_psi(i)
      for i, i + 1 in block k: y_a ^ (recurrence (k, l)), term by term;
    - the z recurrence across a boundary, d_{k-1} n(t_{k+1}) = d_{k+1} (tr(w_{k-1})
      n(j) - d_{k-1} y_psi(t_k) ^ y_psi(j)), j = t_k - 1: by the wedge powers of
      block k, n(t_{k+1}) = y_{t_{k+1}-1} ^ y_{t_{k+1}} = d_k^{s_{k+1}} y_psi(t_k) ^ y_{t_k};
      y_psi(t_k) ^ (recurrence (k - 1, s_k - 1)) turns y_psi(t_k) ^ y_{t_k} into
      the bracket, and w_{k+1} = w_k^{s_{k+1}} w_{k-1} has det d_k^{s_{k+1}} d_{k-1}.
    The last two families rest on a 2x2 lemma.  Write tr_J(Q) = Tr(J Q).  For
    symmetric X and Y and any Q with Z = Y Q X symmetric,
    det3(Y, Z, X) = -tr_J(Q) det(X) det(Y): det3 is the trilinear form
    Tr(J x J y J z) (see `exactlin`), and M J M = det(M) J for symmetric M, so
    J Y J Y = -det(Y) I and det3(Y, Z, X) = -det(Y) Tr(Q X J X) = -det(X) det(Y) Tr(Q J).
    The lemma on (C), with Y = y_{t_k - 1}, X = y_psi(t_k), Q = adj(N_{k+1}),
    tr_J(adj(N)) = -tr_J(N), det y_{t_k - 1} = d_k det N, det y_psi(t_k) = d_{k-1} det N
    and det y_{t_k} = d_k d_{k-1} det N, gives after dividing by det N != 0
    (`MatrixSeed` refuses a singular N)
    - (D) det3(y_{t_k - 1}, y_{t_k}, y_psi(t_k)) = det(y_{t_k}) tr_J(N_{k+1}), k >= 1.
    With it, for every k >= 0:
    - the det3 triple det3(y_{t_k - 1}, y_{t_k}, y_{t_k + 1}) =
      -d_k det(y_{t_k}) tr_J(N_{k+1}): for k >= 1 the y recurrence (k, 0) puts
      tr(w_k) y_{t_k} - d_k y_psi(t_k) in the last slot, and (D) gives the rest;
      for k = 0 the triple det3(y_{-2}, y_{-1}, y_0) is (D) at k = 1 permuted
      cyclically, det(y_0) tr_J(N) = d_1 d_0 det N tr_J(N), which is
      -d_0 det(y_{-1}) tr_J(N_1) as tr_J(N^T) = -tr_J(N);
    - the z wedge n(t_{k+1}) ^ n(i) = det N tr_J(N_{k+1}) d_{k+1} d_k y_i for
      i = t_k + l, 0 <= l < s_{k+1}, which is z_{t_{k+1}} ^ z_i = det N tr_J(N_{k+1}) y_i:
      with a = y_{t_{k+1}-1}, b = y_{t_{k+1}} and c = y_{t_k - 1},
      n(t_{k+1}) ^ n(i) = (a ^ b) ^ (c ^ y_i) = det(a, b, y_i) c - det(a, b, c) y_i.
      For k >= 1, a, b and y_i lie in the span of y_psi(t_k) and y_{t_k} by the
      y recurrence of block k, so det(a, b, y_i) = 0; the wedge power at
      l = s_{k+1} - 1 gives a ^ b = d_k^{s_{k+1}} y_psi(t_k) ^ y_{t_k}, so by (D)
      det(a, b, c) = -d_k^{s_{k+1}} d_k d_{k-1} det N tr_J(N_{k+1}), and
      d_k^{s_{k+1}} d_{k-1} = d_{k+1}.  For k = 0, i = -1 = t_1 - 1, so a = y_i
      and det(a, b, y_i) = 0, and det(a, b, c) = det3(y_{-1}, y_0, y_{-2}) is (D)
      at k = 1, d_1 d_0 det N tr_J(N) = -d_1 d_0 det N tr_J(N_1)."""
    prog, seq = bundle.prog, bundle.seq
    checks = {}
    failures = []

    def record(name, idx, lhs, rhs):
        checks[name] = checks.get(name, 0) + 1
        if lhs != rhs:
            failures.append((name, idx, lhs, rhs))

    k_hi = prog.block_of(i_max)[0] if i_max >= 0 else 0
    d01 = seq.det(0) * seq.det(1)

    def ladder_gcd(k, l):
        # det(w_k^l w_{k-1}) = det(w_k)^l det(w_{k-1}), whose primes all divide d01,
        # and d01 divides the ladder's modulus, so the residue's trace gives gcd(tr, d01);
        # where |d01| = 1 (every bl seed) that determinant is +-1 and the gcd is 1
        if abs(d01) == 1 or gcd(seq.residues.ladder(k, l).trace(), d01) == 1:
            return 1
        return gcd(seq.ladder(k, l).trace(), abs(seq.dets.ladder(k, l)))

    hyp = gcd(seq.tr(1), abs(seq.det(1))) == 1 and all(
        ladder_gcd(1, l) == 1 for l in range(prog.s(2) + 2))
    checks["coprimality_hypothesis"] = 1
    if hyp:
        for k in range(2, k_hi + 1):
            for l in range(prog.s(k + 1) + 2):
                # the content divides gcd(tr, det), so coprime ladders are primitive
                record("ladder_coprime", (k, l), ladder_gcd(k, l), 1)
    return IdentityReport(checks=checks, failures=failures, i_max=i_max, hypothesis_holds=hyp)


# ---------------------------------------------------------------------------
# contents
# ---------------------------------------------------------------------------

@dataclass
class ContentsReport:
    y_contents: dict        # i -> content(y_i)
    y_divides_detN: bool
    z_integral: bool        # det(w_2) z_j integral for all tested j: proved (`ZSeq`)
    z_divides_bound: bool   # contents divide det(w2)^2 det(N)^2 |Tr(JN)| (when nonzero)
    content_bound: int      # |det(w2)^2 det(N)^2 Tr(JN)|
    i_max: int


def contents_report(bundle: Bundle, i_max: int) -> ContentsReport:
    """The contents of y_i, -2 <= i <= i_max, and whether they divide det N;
    whether Z_j = det(w_2) z_j, 0 <= j <= i_max, is integral and its content
    divides the bound det(w_2)^2 det(N)^2 |Tr(JN)|.

    Each y content is read first off the ladder residues mod
    P = |det w0 det w1 det N| (`YSeq.content`).  Z_j is integral because z_j is
    (`ZSeq`).  When Tr(JN) != 0 and every y content divides det N, the bound is
    proved and no z is formed: the z wedge identity of `verify_identities`,
    z_{t_{k+1}} ^ z_j = det N tr_J(N_{k+1}) y_j for j in block k, gives
    Z_{t_{k+1}} ^ Z_j = det(w_2)^2 det N tr_J(N_{k+1}) y_j, with tr_J(N_{k+1}) =
    +-Tr(JN).  The wedge is bilinear and both Z are integral, so
    c(Z_{t_{k+1}}) c(Z_j) divides det(w_2)^2 |det N Tr(JN)| c(y_j), which divides
    the bound as c(y_j) | det N.  The right side is not zero (det y_j != 0), so
    no Z is zero.  Otherwise every Z_j is formed and its content is taken, so a
    zero z raises `ZeroObject` as it did when z was divided out of the wedge."""
    seq, ys, zs, seed = bundle.seq, bundle.ys, bundle.zs, bundle.seed
    dN = abs(seed.det_N)
    y_contents = {i: ys.content(i) for i in range(-2, i_max + 1)}
    y_div = all(dN % c == 0 for c in y_contents.values())
    bound = seq.det(2) ** 2 * seed.det_N ** 2 * abs(seed.tr_JN)
    if seed.tr_JN != 0 and y_div:
        z_div = True
    else:
        z_contents = [zs.integerized(j).content() for j in range(0, i_max + 1)]
        z_div = all(bound % c == 0 for c in z_contents)
    return ContentsReport(
        y_contents=y_contents,
        y_divides_detN=y_div,
        z_integral=True,
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
    content_pairs_ok: bool  # c_m c_{m+1} | d_i, the literal statement; informational
    # only: it fails for roy(2,1,2) at i = 3 (contents [1, 2, 1, 1, 16, 1], d_3 = 8)


def gray_fan(bundle: Bundle, i: int) -> GrayFan:
    """The fan of lattice points between y_i and y_{i+1} obtained from the
    continued fraction [a_0; a_1, ..., a_r] of t / d, t = tr(w_{i+1}) and
    d = det(w_{i+1}) > 0; only meaningful when the program is all-ones
    (t_k = k - 1, three-term recurrence with step -2).

    With the convergents p_m / q_m, m = -1 .. r (p_{-1} / q_{-1} = 1 / 0), the
    points are x_m = p_m y_i - q_m y_{i-2}, with contents c_m.  Nothing about
    them is checked at run time.  Write d_j = det w_j; the y recurrence of
    `PROVED` at (k, l) = (i + 1, 0) is y_{i+1} = t y_i - d y_{i-2}, and
    w_{i+2} = w_{i+1} w_i gives d_{i+2} = d d_i.  They prove:
    - the recurrence x_0 = a_0 x_{-1} - y_{i-2}, x_{m+1} = a_{m+1} x_m + x_{m-1}:
      the points are linear in (p_m, q_m), which obey it with p_{-2} / q_{-2} = 0 / 1;
    - the endpoints x_{-1} = y_i and, when gcd(t, d) = 1, x_r = y_{i+1}: the
      last convergent is t / d in lowest terms, so x_r = y_{i+1} / gcd(t, d);
    - the decomposition d_{i+2} x_m = alpha_m y_i + beta_m y_{i+1} with
      alpha_m = d_i (d p_m - t q_m) and beta_m = d_i q_m: put the y recurrence in;
    - the wedge x_m ^ x_{m+1} = +-d_i z_{i+1} (of `ZSeq`):
      p_m q_{m+1} - q_m p_{m+1} = +-1 gives x_m ^ x_{m+1} = +-y_{i-2} ^ y_i; i + 1
      is t_{i+2}, so z_{i+1} = (y_i ^ y_{i+1}) / d_{i+2}, the recurrence gives
      y_i ^ y_{i+1} = d y_{i-2} ^ y_i, and d_{i+2} = d d_i;
    - the relaxed divisibility c_m c_{m+1} | content(d_i z_{i+1}): the wedge is
      bilinear, so c_m c_{m+1} divides the content of x_m ^ x_{m+1} =
      +-y_{i-2} ^ y_i = +-d_i z_{i+1};
    - gcd(c_m, c_{m+1}) | content(y_i): each step (x_{m-1}, x_m) -> (x_m, x_{m+1})
      is unimodular, so x_m and x_{m+1} generate x_{-1} = y_i over Z.
    The literal c_m c_{m+1} | d_i is not among them; it is only reported."""
    prog, seq, ys = bundle.prog, bundle.seq, bundle.ys
    if not prog.is_fibonacci:
        raise FibonacciOnly("fans require the all-ones program")
    if i < 2:
        raise BadIndex(f"fan needs i >= 2, got {i}")
    num, den = seq.tr(i + 1), seq.det(i + 1)
    if den <= 0:
        raise BadIndex(f"det w_{i + 1} = {den} must be positive for the fan")
    quotients = []
    while den:
        quotients.append(num // den)
        num, den = den, num % den
    # convergents p_m / q_m, m = -1 .. r
    conv = [(1, 0)]
    p_prev, q_prev = 0, 1
    for a in quotients:
        p, q = conv[-1]
        conv.append((a * p + p_prev, a * q + q_prev))
        p_prev, q_prev = p, q
    yi, yim2 = ys.at(i), ys.at(i - 2)
    points = [p * yi - q * yim2 for p, q in conv]
    contents = [v.content() for v in points]
    d_i = seq.det(i)
    content_pairs_ok = all(abs(d_i) % (contents[m] * contents[m + 1]) == 0
                           for m in range(len(contents) - 1))
    return GrayFan(i=i, quotients=quotients, points=points, contents=contents,
                   content_pairs_ok=content_pairs_ok)
