"""The three workloads.  Each is a fixed list of answers, run in whole rounds;
every answer is checked after its round against `checks`, which never calls
sturmlab.

An answer is one trustworthy result: identities checked up to t_k, an
enclosure of xi, the successive minima at q, or an exponent estimate.  Each
answer builds its own bundle (and candidate builder), so answers do not share
caches and their order does not change their cost; the workload seed orders
them and, on `oracle`, shifts the q grid.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath

from sturmlab import cli, exponents, paramgeo, sturm
from sturmlab.approx import make_bundle
from sturmlab.matseq import bl_family, roy_family
from sturmlab.sturm import SturmianProgram

import checks

FIB = "prefix=[-1,1];period=[1]"
PERIOD2 = "prefix=[-1,1];period=[2]"

# (family, params, program): params of bl are (a, b, s1')
BL12 = ("bl", (1, 2, 1), FIB)
ROY212 = ("roy", (2, 1, 2), FIB)
ROY313 = ("roy", (3, 1, 3), FIB)
ROY212_P2 = ("roy", (2, 1, 2), PERIOD2)
BL12_P2 = ("bl", (1, 2, 1), PERIOD2)

NAMES = ("exact", "breakpoints", "oracle")


def config_label(config) -> str:
    family, params, prog = config
    a, b, c = params
    label = f"{family}({a},{b})" if family == "bl" else f"{family}({a},{b},{c})"
    return label + ("" if prog == FIB else "/p2")


@dataclass
class Failure:
    """An answer the program did not produce."""
    reason: str
    failed: bool = True


@dataclass
class CliResult:
    rc: int
    stdout: str
    data: Optional[dict]     # the `data` block of the result file, if written
    output_bytes: int

    @property
    def failed(self) -> bool:
        return self.rc != 0 and self.data is None


@dataclass
class Answer:
    name: str
    run: Callable            # ctx -> output; the timed part
    check: Callable          # (output, ctx) -> list of problems
    prepare: Optional[Callable] = None   # untimed, before each round
    finish: Optional[Callable] = None    # untimed, output -> output, after the call


@dataclass
class Workload:
    name: str
    answers: list
    references: dict = field(default_factory=dict)   # computed before timing
    problems: list = field(default_factory=list)     # reference checks that failed


class Setup:
    """Seeds, programs and the program objects built from them."""

    def __init__(self, configs):
        self.seeds, self.programs = {}, {}
        for config in configs:
            family, params, prog = config
            if family == "roy":
                self.seeds[config] = roy_family(*params)
            else:
                self.seeds[config] = bl_family(*params)
            self.programs[config] = SturmianProgram.parse(prog)
        # built here so that `setup_s` covers their construction; each answer
        # builds its own with `bundle()`
        self.bundles = {c: self.bundle(c) for c in configs}

    def bundle(self, config):
        return make_bundle(self.seeds[config], self.programs[config])


WORKLOAD_CONFIGS = {
    "exact": (BL12, ROY212, ROY313, ROY212_P2),
    "breakpoints": (BL12, BL12_P2),
    "oracle": (BL12, ROY212),
}


# ---------------------------------------------------------------------------
# exact: in-process CLI calls
# ---------------------------------------------------------------------------

def _cli_flags(config):
    family, params, prog = config
    flags = ["--family", family]
    flags += ["--ab", f"{params[0]},{params[1]}"] if family == "bl" \
        else ["--abc", ",".join(map(str, params))]
    return flags + ([] if prog == FIB else ["--program", prog])


def _cli_answer(name, argv, out_dir, result_file, check):
    def prepare(ctx):
        shutil.rmtree(out_dir, ignore_errors=True)

    def run(ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(["--json", "--out-dir", out_dir] + argv)
        return rc, buf.getvalue()

    def finish(out):
        rc, text = out
        path = os.path.join(out_dir, result_file)
        data, size = None, len(text.encode())
        if os.path.exists(path):
            with open(path) as fh:
                raw = fh.read()
            size += len(raw.encode())
            data = json.loads(raw)["data"]
        return CliResult(rc, text, data, size)

    return Answer(name, run, check, prepare, finish)


def _verify_check(out: CliResult, ctx) -> list:
    problems = checks.check_verify_report(out.data or {})
    if out.rc != 0:
        problems.append(f"exit code {out.rc} with a report written")
    return problems


def _xi_check(config, digits):
    def check(out: CliResult, ctx) -> list:
        lo, hi = ctx["references"][("xi", config, digits)]
        problems = checks.check_xi_digits(out.stdout, lo, hi, digits)
        if out.data is None:
            problems.append("no xi.json written")
        elif config[0] == "bl" and out.data.get("cross_check") is not True:
            problems.append("continued-fraction cross-check did not pass")
        if out.rc != 0:
            problems.append(f"exit code {out.rc} with a report written")
        return problems
    return check


# verify depth ladders per seed; each stops below the depth at which `verify`
# first fails, except the one failing depth kept per seed (see README)
EXACT_VERIFY = (
    (BL12, range(8, 25)),
    (ROY212, list(range(8, 18)) + [22]),
    (ROY313, range(8, 18)),
    (ROY212_P2, list(range(4, 10)) + [12]),
)
EXACT_XI = ((BL12, (1000, 2000)), (ROY212, (1000, 2000)))
QUICK_VERIFY = ((BL12, (12,)), (ROY212, (10,)), (ROY212_P2, (10,)))
QUICK_XI = ((BL12, (100,)), (ROY212, (100,)))


def exact_workload(out_root, quick):
    answers, refs, deepest = [], {}, {}
    for config, depths in (QUICK_VERIFY if quick else EXACT_VERIFY):
        for d in depths:
            name = f"verify {config_label(config)} --up-to {d}"
            out_dir = os.path.join(out_root, f"verify-{len(answers)}")
            answers.append(_cli_answer(name, _cli_flags(config) + ["verify", "--up-to", str(d)],
                                       out_dir, "verify.json", _verify_check))
            deepest[config] = max(deepest.get(config, 0), d)
    for config, digit_list in (QUICK_XI if quick else EXACT_XI):
        for digits in digit_list:
            name = f"xi {config_label(config)} --digits {digits}"
            out_dir = os.path.join(out_root, f"xi-{len(answers)}")
            answers.append(_cli_answer(name, _cli_flags(config) + ["xi", "--digits", str(digits)],
                                       out_dir, "xi.json", _xi_check(config, digits)))
            refs[("xi", config, digits)] = checks.xi_enclosure(*config, int(digits * 3.33) + 64)
    return answers, refs, deepest


def exact_reference_problems(setup, deepest) -> list:
    """The deepest w_k of each verified seed (k = depth + 1, the last matrix
    the y ladder reaches) against the reference product."""
    problems = []
    for config, depth in deepest.items():
        family, params, prog = config
        w = setup.bundle(config).seq.w(depth + 1)
        problems += [f"{config_label(config)}: {p}" for p in
                     checks.check_deep_w(family, params, prog, depth + 1, (w.a, w.b, w.c, w.d))]
    return problems


# ---------------------------------------------------------------------------
# breakpoints: candidate minima at the predicted breakpoints
# ---------------------------------------------------------------------------

BP_WINDOW = (3, 10)          # bl(1,2): samples at every breakpoint with k >= 4
BP_P2_WINDOW = (3, 8)        # bl(1,2) on the period-2 program
BP_P2_SAMPLES = (("q_t1", 6), ("q_t1", 7))   # q ~ 282 and 681: 1122 and 2439 bits
QUICK_BP_WINDOW = (3, 7)
QUICK_P2_SAMPLES = (("q_t1", 5),)


def _sample_prec(q) -> int:
    """Working precision of the reference trajectories at q: log|x.u| loses
    about q / log 2 bits to cancellation."""
    return int(2 * float(q)) + 256


def _system_answer(setup, config, window, key, full_shape):
    """The predicted 3-system on a k window and its breakpoints.  The shape
    checks of `validate_3system` are only required of the Fibonacci program:
    on the period-2 program they report I_i outside its window (see README)."""
    def run(ctx):
        P = paramgeo.predicted_system(setup.bundle(config), window, prec=256)
        breakpoints = P.breakpoints()
        ctx[key] = P, breakpoints
        return paramgeo.validate_3system(P, tol=1e-9), breakpoints

    def check(out, ctx):
        rep, breakpoints = out
        ok = rep.valid if full_shape else rep.def_conditions_ok
        problems = [] if ok else ["predicted system is not a valid 3-system"]
        q_t = [q for _, q in breakpoints["q_t"]]
        return problems + checks.check_breakpoint_growth(
            q_t, checks.Program(config[2]).growth_root(), 0.01)

    return Answer(f"system {config_label(config)} k {window[0]}:{window[1]}", run, check)


def _sample_answer(setup, config, key, kind, k, samples_key=None):
    def run(ctx):
        P, breakpoints = ctx[key]
        q = dict(breakpoints[kind])[k]
        cb = paramgeo.CandidateBuilder(setup.bundle(config), prec=256)
        s = paramgeo.minima_candidates(cb, q, P=P, kind=kind, k=k)
        if samples_key:
            ctx.setdefault(samples_key, []).append(s)
        return s

    def check(s, ctx):
        lo, hi = ctx["references"][("xi", config)]
        return checks.check_minima(s.q, s.L, s.Lstar, _ints(s.points), _ints(s.dual_points),
                                   lo, hi, _sample_prec(s.q))

    return Answer(f"sample {config_label(config)} {kind} k={k}", run, check)


def _ints(points):
    return [p.as_tuple() for p in points]


def _empirical_answer(key, samples_key):
    def run(ctx):
        P, _ = ctx[key]
        emp = exponents.empirical(ctx[samples_key])
        qs = sturm.quantities(P.prog, prec=256)
        closed = exponents.closed_form(qs.sigma, P.delta, qs.tau, qs.sigma_prime, 256)
        return emp, closed

    def check(out, ctx):
        emp, closed = out
        return checks.check_exponents(
            {n: getattr(emp, n).est for n in checks.EMPIRICAL_NAMES},
            {n: v.mid for n, v in closed.table()})

    return Answer("exponents bl(1,2) empirical vs closed form", run, check)


def breakpoints_workload(setup, rng, quick):
    window = QUICK_BP_WINDOW if quick else BP_WINDOW
    p2_samples = QUICK_P2_SAMPLES if quick else BP_P2_SAMPLES
    P = paramgeo.predicted_system(setup.bundle(BL12), window, prec=256)
    P2 = paramgeo.predicted_system(setup.bundle(BL12_P2), BP_P2_WINDOW, prec=256)
    samples = [_sample_answer(setup, BL12, "P", kind, k, "samples")
               for kind, pts in P.breakpoints().items() for k, _ in pts if k >= 4]
    samples += [_sample_answer(setup, BL12_P2, "P2", kind, k) for kind, k in p2_samples]
    rng.shuffle(samples)
    answers = [_system_answer(setup, BL12, window, "P", True),
               _system_answer(setup, BL12_P2, BP_P2_WINDOW, "P2", False)] + samples
    if not quick:
        answers.append(_empirical_answer("P", "samples"))
    q_max = {BL12: max(float(q) for pts in P.breakpoints().values() for _, q in pts),
             BL12_P2: max(float(dict(P2.breakpoints()[kind])[k]) for kind, k in p2_samples)}
    refs = {("xi", c): checks.xi_enclosure(*c, _sample_prec(q) + 128) for c, q in q_max.items()}
    return answers, refs


# ---------------------------------------------------------------------------
# oracle: brute-force minima against the candidates
# ---------------------------------------------------------------------------

# Most answers sit at q <= 9.5, where candidate scoring at 256 bits does the
# work; the rest at q = 12.75..17, where the numpy enumeration does most of
# each answer.  The gap between the two groups lies away from both the median
# answer and the 11th largest, so neither metric flips between groups.
_LOW_Q = (0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0, 5.75, 6.5, 7.25, 8.0, 8.75, 9.5)
ORACLE_GRID = {
    BL12: _LOW_Q + (13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 17.0),
    ROY212: _LOW_Q + (12.75, 13.25, 13.75, 14.0, 14.25, 14.5, 14.75),
}
DUALITY_GRID = (2.0, 6.0, 10.0)
QUICK_ORACLE_GRID = {BL12: (2.0, 8.0, 13.0), ROY212: (2.0, 8.0, 13.0)}
QUICK_DUALITY_GRID = (2.0, 6.0)
ORACLE_SHIFT = 0.02          # the seed shifts every q by a value in [0, 0.02)


def _brute_answer(setup, config, q):
    def run(ctx):
        cb = paramgeo.CandidateBuilder(setup.bundle(config), prec=256)
        # minima_bruteforce bounds its search by a candidate sample it does
        # not return; keep it for the check
        seen = []
        inner = paramgeo.minima_candidates

        def keep(*args, **kwargs):
            seen.append(inner(*args, **kwargs))
            return seen[-1]

        paramgeo.minima_candidates = keep
        try:
            brute = paramgeo.minima_bruteforce(cb, mpmath.mpf(q))
        finally:
            paramgeo.minima_candidates = inner
        return brute, seen[0]

    def check(out, ctx):
        brute, cand = out
        lo, hi = ctx["references"][("xi", config)]
        prec = _sample_prec(q)
        return (checks.check_oracle_below_candidate(brute.L, brute.Lstar, cand.L, cand.Lstar)
                + checks.check_minima(q, brute.L, brute.Lstar, _ints(brute.points),
                                      _ints(brute.dual_points), lo, hi, prec, exact=True)
                + checks.check_minima(q, cand.L, cand.Lstar, _ints(cand.points),
                                      _ints(cand.dual_points), lo, hi, prec))

    return Answer(f"bruteforce {config_label(config)} q={q:.4f}", run, check)


def _duality_answer(setup, config, grid):
    def run(ctx):
        cb = paramgeo.CandidateBuilder(setup.bundle(config), prec=256)
        return paramgeo.duality_check(cb, list(grid))

    def check(rep, ctx):
        lo, hi = ctx["references"][("xi", config)]
        return checks.check_duality_report(rep.per_j, lo, hi)

    qs = ", ".join(f"{q:.4f}" for q in grid)
    return Answer(f"duality {config_label(config)} q in {qs}", run, check)


def oracle_workload(setup, rng, quick):
    shift = rng.uniform(0.0, ORACLE_SHIFT)
    answers = [_brute_answer(setup, config, q + shift)
               for config, grid in (QUICK_ORACLE_GRID if quick else ORACLE_GRID).items()
               for q in grid]
    answers += [_duality_answer(setup, config, [q + shift for q in
                                                (QUICK_DUALITY_GRID if quick else DUALITY_GRID)])
                for config in (BL12, ROY212)]
    rng.shuffle(answers)
    refs = {("xi", c): checks.xi_enclosure(*c, 512) for c in (BL12, ROY212)}
    return answers, refs


# ---------------------------------------------------------------------------

def build(name, seed, out_root, quick=False) -> Workload:
    """The workload's answers in this seed's order, and its references."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    setup = Setup(WORKLOAD_CONFIGS[name])
    rng = random.Random(seed)
    if name == "exact":
        answers, refs, deepest = exact_workload(out_root, quick)
        rng.shuffle(answers)
        return Workload(name, answers, refs, exact_reference_problems(setup, deepest))
    if name == "breakpoints":
        answers, refs = breakpoints_workload(setup, rng, quick)
    else:
        answers, refs = oracle_workload(setup, rng, quick)
    return Workload(name, answers, refs)
