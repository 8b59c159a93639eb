"""Command line interface.

Subcommands: verify, three-system, exponents, xi, gray, spectrum.
Exit codes: 0 success / all checks pass; 1 a check failed (with a witness
printed); 2 usage error; 3 I/O error.  Every emitted file embeds the run
configuration so reruns are reproducible bit for bit.

`main` alone reads and checks the flags and the seed file, writes the JSON
envelope and maps exceptions to exit codes.  Each `cmd_*(args, cfg)` prints
its report and returns `(code, data)`; with `--json`, `main` writes `data` to
`<command>.json`, with `-` replaced by `_`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal

import mpmath

from .sturm import BadSequence, SturmianProgram, quantities, spectrum_endpoints
from .matseq import BadRoyTriple, DegenerateGrowth, DegenerateSeed, EqualLetters, \
    roy_family, bl_family, check_mult_growth, resolve_delta
from .approx import make_bundle, verify_identities, contents_report, gray_fan, \
    BadIndex, FibonacciOnly, PROVED
from .xi import xi_value, bl_xi_oracle, properness_check
from . import paramgeo, exponents

SCHEMA = "sturmlab/1"
# the CSV prints 17 significant digits, which need at least 57 bits
MIN_PRECISION = 64
# least value of each integer subcommand flag, checked by main before any work
LEAST = {"up_to": 1, "digits": 1, "samples": 0}


class UsageError(ValueError):
    pass


def _parse_ints(text, n, flag):
    try:
        parts = [int(x) for x in text.split(",")]
        if len(parts) == n:
            return parts
    except ValueError:
        pass
    raise UsageError(f"{flag} expects {n} comma-separated integers, got {text!r}")


def _int(value, name, least=None):
    try:
        n = int(value)
    except ValueError:
        raise UsageError(f"{name} expects an integer, got {value!r}")
    if least is not None and n < least:
        raise UsageError(f"{name} must be >= {least}, got {n}")
    return n


def _finite(text, name):
    try:
        x = mpmath.mpf(text)
        if mpmath.isfinite(x):
            return x
    except ValueError:
        pass
    raise UsageError(f"{name} expects a finite number, got {text!r}")


def load_config(args) -> dict:
    """Merge seed-file key=value entries (if any) under the CLI flags."""
    cfg = {}
    if args.seed_file:
        try:
            with open(args.seed_file) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#") or "=" not in line:
                        continue
                    k, v = line.split("=", 1)
                    cfg[k.strip()] = v.strip()
        except OSError as e:
            raise IOError(f"cannot read seed file: {e}")
    for key in ("family", "abc", "ab", "s1", "program", "precision"):
        v = getattr(args, key)
        if v is not None:
            cfg[key] = v
    cfg["precision"] = _int(cfg.get("precision", 256), "--precision", MIN_PRECISION)
    if "s1" in cfg:
        cfg["s1"] = _int(cfg["s1"], "--s1")
    cfg.setdefault("program", "prefix=[-1,1];period=[1]")
    return cfg


def build_seed(cfg):
    fam = cfg.get("family")
    try:
        if fam == "roy":
            if "abc" not in cfg:
                raise UsageError("--family roy requires --abc a,b,c")
            a, b, c = _parse_ints(str(cfg["abc"]), 3, "--abc")
            return roy_family(a, b, c)
        if fam == "bl":
            if "ab" not in cfg:
                raise UsageError("--family bl requires --ab a,b")
            a, b = _parse_ints(str(cfg["ab"]), 2, "--ab")
            return bl_family(a, b, cfg.get("s1", 1))
    except (BadRoyTriple, EqualLetters, DegenerateSeed) as e:
        raise UsageError(f"bad seed: {e}")
    raise UsageError(f"unknown or missing --family (got {fam!r}); use roy or bl")


def build_program(cfg):
    try:
        return SturmianProgram.parse(str(cfg["program"]))
    except BadSequence as e:
        raise UsageError(f"bad program: {e}")


def build_bundle(cfg):
    return make_bundle(build_seed(cfg), build_program(cfg))


def config_note(cfg, extra=None):
    items = dict(cfg)
    if extra:
        items.update(extra)
    return " ".join(f"{k}={items[k]}" for k in sorted(items))


def _write(args, name, text):
    """Write `text` to the file `name` under --out-dir."""
    path = os.path.join(args.out_dir or ".", name)
    try:
        os.makedirs(args.out_dir or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise IOError(f"cannot write {path}: {e}")


def _fraction_str(x) -> str:
    """str(x) for a Fraction, without the interpreter's limit on the digits of
    int-to-decimal conversion (Decimal converts from the binary form)."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _k_system(text, bundle, prec, delta=None):
    """The predicted 3-system on the `--k` window lo:hi."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"--k expects lo:hi, got {text!r}")
    if hi < lo + 2:
        raise UsageError(f"--k window {text} is too narrow: need hi >= lo + 2")
    try:
        return paramgeo.predicted_system(bundle, (lo, hi), delta=delta, prec=prec)
    except DegenerateGrowth as e:
        raise UsageError(f"--k {text}: {e}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args, cfg):
    bundle = build_bundle(cfg)
    if bundle.seed.tr_JN == 0:
        print("warning: not proper-capable (Tr(JN)=0); det3_triple and z_wedge hold with both sides 0")
    i_max = bundle.prog.t(args.up_to)
    rep = verify_identities(bundle, i_max)
    crep = contents_report(bundle, i_max)
    grep = check_mult_growth(bundle.seq, min(args.up_to, 18))
    print(rep.summary())
    print("proved, not checked:", ", ".join(PROVED))
    c_ok = crep.y_divides_detN and crep.z_integral and crep.z_divides_bound
    print(f"contents: max content(y)={max(crep.y_contents.values())} divides "
          f"|det N|={abs(bundle.seed.det_N)}: {crep.y_divides_detN}; "
          f"z integral: {crep.z_integral}, bounded: {crep.z_divides_bound}")
    shape = f" shape_ok={grep.shape_ok}" if bundle.seed.family == "roy" else ""
    print(f"multiplicative growth ratios in [{grep.ratio_min}, {grep.ratio_max}]{shape}")
    ok = rep.ok and c_ok and grep.shape_ok
    if not ok:
        for f in rep.failures[:5]:
            print("witness:", f)
    return (0 if ok else 1), {"identities_ok": rep.ok, "checks": rep.checks,
                              "hypothesis_holds": rep.hypothesis_holds,
                              "proved": list(PROVED),
                              "contents_ok": c_ok, "growth_ok": grep.shape_ok}


def cmd_three_system(args, cfg):
    bundle = build_bundle(cfg)
    P = _k_system(args.k, bundle, cfg["precision"], delta=args.force_delta)
    rep = paramgeo.validate_3system(P)
    note = config_note(cfg, {"k": args.k, "delta": mpmath.nstr(P.delta, 10),
                             "delta_source": P.delta_source})
    samples = []
    if args.samples > 0:
        cb = paramgeo.CandidateBuilder(bundle, prec=cfg["precision"])
        lo, hi = P.span
        for t in range(args.samples):
            q = lo + (hi - lo) * (t + mpmath.mpf("0.5")) / args.samples
            samples.append(paramgeo.minima_candidates(cb, q, P=P))
    if args.csv:
        rows = paramgeo.csv_rows(P, samples) if samples else ["q,L1,L2,L3,P1,P2,P3,gray_flag"]
        _write(args, "three_system.csv", "# " + note + "\n" + "\n".join(rows) + "\n")
    if args.svg:
        _write(args, "three_system.svg", paramgeo.svg_plot(P, samples, config_note=note))
    data = {"valid": rep.valid, "def_conditions_ok": rep.def_conditions_ok,
            "shape_ok": rep.shape_ok, "delta": mpmath.nstr(P.delta, 15),
            "span": [mpmath.nstr(x, 15) for x in P.span]}
    if rep.valid:
        print(f"valid 3-system on span [{mpmath.nstr(P.span[0], 8)}, "
              f"{mpmath.nstr(P.span[1], 8)}] (delta={mpmath.nstr(P.delta, 8)})")
        return 0, data
    print("not a 3-system:", (rep.failures or rep.shape_failures)[:3])
    return 1, data


def cmd_exponents(args, cfg):
    bundle = build_bundle(cfg)
    prec = cfg["precision"]
    qs = quantities(bundle.prog, prec=prec)
    delta = resolve_delta(bundle.seq, prec).value
    # an improper seed raises ImproperDelta, which main reports as a verdict
    es = exponents.closed_form(qs.sigma, delta, qs.tau, qs.sigma_prime, prec)
    emp = None
    if args.empirical:
        P = _k_system(args.k, bundle, prec)
        samples = paramgeo.breakpoint_samples(paramgeo.CandidateBuilder(bundle, prec=prec), P)
        emp = exponents.empirical(samples, prec)
    rows = []
    for name, v in es.table():
        e = getattr(emp, name, None) if emp else None
        diff = abs(float(e.est) - float(v.mid)) if e is not None else None
        rows.append((name, repr(v), repr(e) if e else "-",
                     f"{diff:.4f}" if diff is not None else "-"))
    w = max(len(r[0]) for r in rows)
    print(f"sigma={mpmath.nstr(qs.sigma, 10)} delta={mpmath.nstr(delta, 10)} "
          f"tau={mpmath.nstr(qs.tau, 10)}")
    for r in rows:
        print(f"{r[0]:<{w}}  {r[1]:<42} {r[2]:<38} |diff|={r[3]}")
    return 0, {r[0]: {"closed": r[1], "empirical": r[2], "diff": r[3]} for r in rows}


def cmd_xi(args, cfg):
    bundle = build_bundle(cfg)
    bits = int(args.digits * 3.33) + 32
    xv = xi_value(bundle, bits)
    with mpmath.workprec(bits + 16):
        print("xi =", mpmath.nstr(xv.mpf(), args.digits))
    prop = properness_check(bundle, prec=cfg["precision"])
    print(f"proper: {prop.proper} ({prop.delta_evidence})")
    verdict = None
    if bundle.seed.family == "bl":
        a, b = bundle.seed.params[:2]
        s1 = bundle.seed.params[2] if len(bundle.seed.params) > 2 else 1
        oracle = bl_xi_oracle(a, b, s1, bundle.prog, bits)
        gap = abs(xv.mpf() - oracle.mpf())
        verdict = bool(gap < mpmath.mpf(2) ** (-args.digits * 3.32 + 8))
        print(f"continued-fraction cross-check: agree to {mpmath.nstr(gap, 3)} "
              f"-> {'ok' if verdict else 'MISMATCH'}")
    return (1 if verdict is False else 0), {
        "xi_lo": _fraction_str(xv.lo), "xi_hi": _fraction_str(xv.hi), "index": xv.index,
        "proper": prop.proper, "cross_check": verdict}


def cmd_gray(args, cfg):
    bundle = build_bundle(cfg)
    try:
        fan = gray_fan(bundle, args.i)
    except FibonacciOnly as e:
        raise UsageError(f"--program {cfg['program']}: {e}")
    except BadIndex as e:
        raise UsageError(f"--i {args.i}: {e}")
    # the statements that gray_fan's docstring proves
    proved = ["endpoints", "recurrence", "wedge", "content_pairs_relaxed", "content_gcd",
              "decomposition"]
    print(f"i={fan.i} quotients={fan.quotients} points={len(fan.points)}")
    print(f"contents={fan.contents} content_pairs_ok={fan.content_pairs_ok}")
    print("proved, not checked:", ", ".join(proved))
    return 0, {"i": fan.i, "quotients": fan.quotients, "contents": fan.contents,
               "content_pairs_ok": fan.content_pairs_ok, "proved": proved}


def cmd_spectrum(args, cfg):
    prec = cfg["precision"]
    if args.endpoints:
        sp = spectrum_endpoints()
        with mpmath.workprec(prec):
            for name, surd in sp.named.items():
                print(f"{name} = {surd} = {mpmath.nstr(surd.to_real(prec), 15)}")
            for label, lo, hi in sp.intervals:
                hs = "inf" if hi is None else mpmath.nstr(hi.to_real(prec), 15)
                print(f"{label}: [{mpmath.nstr(lo.to_real(prec), 15)}, {hs}]")
        return 0, {"named": {k: str(v) for k, v in sp.named.items()},
                   "intervals": [[lab, str(a), None if b is None else str(b)]
                                 for lab, a, b in sp.intervals]}
    qs = quantities(build_program(cfg), prec=prec)
    rep = exponents.omega2_sweep(qs.sigma, prec=prec)
    print(f"sweep: {len(rep.rows)} triples; delta cover gap "
          f"{mpmath.nstr(rep.delta_cover_gap, 6)} on [0, "
          f"{mpmath.nstr(rep.delta_range[1], 6)}]; omega2 cover gap "
          f"{mpmath.nstr(rep.omega2_cover_gap, 6)}")
    return 0, {"n": len(rep.rows),
               "delta_cover_gap": mpmath.nstr(rep.delta_cover_gap, 12),
               "omega2_cover_gap": mpmath.nstr(rep.omega2_cover_gap, 12),
               "rows": [{"triple": r.triple, "proper": r.proper,
                         "bracket": [mpmath.nstr(x, 12) for x in r.bracket]}
                        for r in rep.rows]}


# ---------------------------------------------------------------------------

@functools.cache
def make_parser():
    p = argparse.ArgumentParser(prog="sturmlab")
    p.add_argument("--precision", default=None)
    p.add_argument("--seed-file", default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--family", choices=("roy", "bl"), default=None)
    p.add_argument("--abc", default=None)
    p.add_argument("--ab", default=None)
    p.add_argument("--s1", default=None)
    p.add_argument("--program", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify")
    v.add_argument("--up-to", type=int, default=14)
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("three-system")
    t.add_argument("--k", default="4:12")
    t.add_argument("--force-delta", default=None)
    t.add_argument("--samples", type=int, default=0)
    t.set_defaults(fn=cmd_three_system)

    e = sub.add_parser("exponents")
    e.add_argument("--empirical", action="store_true")
    e.add_argument("--k", default="4:14")
    e.set_defaults(fn=cmd_exponents)

    x = sub.add_parser("xi")
    x.add_argument("--digits", type=int, default=50)
    x.set_defaults(fn=cmd_xi)

    g = sub.add_parser("gray")
    g.add_argument("--i", type=int, required=True)
    g.set_defaults(fn=cmd_gray)

    s = sub.add_parser("spectrum")
    s.add_argument("--endpoints", action="store_true")
    s.set_defaults(fn=cmd_spectrum)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        for name, least in LEAST.items():   # a flag the subcommand lacks passes
            _int(getattr(args, name, least), "--" + name.replace("_", "-"), least)
        if getattr(args, "force_delta", None) is not None:
            args.force_delta = _finite(args.force_delta, "--force-delta")
        cfg = load_config(args)
        code, data = args.fn(args, cfg)
        if args.json:
            _write(args, args.command.replace("-", "_") + ".json", json.dumps(
                {"schema": SCHEMA, "config": {k: str(v) for k, v in cfg.items()}, "data": data},
                indent=2, sort_keys=True))
        return code
    except UsageError as e:
        print("usage error:", e, file=sys.stderr)
        return 2
    except IOError as e:
        print("I/O error:", e, file=sys.stderr)
        return 3
    except exponents.ImproperDelta as e:
        print("improper seed:", e)          # a verdict of exponents, so on stdout
        return 1
    except ValueError as e:
        print("error:", e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
