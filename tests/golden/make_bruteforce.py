"""Regenerate tests/golden/bruteforce.json: the brute-force minima of bl(1,2)
and roy(2,1,2) (Fibonacci program, candidate builders at 256 bits) on the
unshifted q grids of the benchmark's `oracle` workload, its duality grid and
the deep Mahler-duality grid of acceptance criterion 8.

Each record holds q, L and L* as hex `_mpf_` (see `hex_mpf`) and the primal
and dual points.  Run from the repository root:

    PYTHONPATH=src python tests/golden/make_bruteforce.py           # rewrite
    PYTHONPATH=src python tests/golden/make_bruteforce.py --check   # compare

`--check` recomputes every record, writes nothing, prints each record that
moved (seed, q, which of L, L* and the points moved, the largest |Δ|) and
exits 1 if any did.  Points compare as in tests/test_golden.py: up to sign,
or as a tie of equal exact keys.  Regeneration rule: a change that moves a record lists it
in CHANGES.md, with the reason and the bound it moves within; a change that
claims bit-identity regenerates nothing.
"""
from __future__ import annotations

import functools
import json
import pathlib
import sys

import mpmath

from sturmlab import paramgeo
from sturmlab.approx import make_bundle
from sturmlab.exactlin import SymVec
from sturmlab.matseq import bl_family, roy_family
from sturmlab.sturm import SturmianProgram

OUT = pathlib.Path(__file__).with_name("bruteforce.json")

_LOW_Q = (0.5, 1.25, 2.0, 2.75, 3.5, 4.25, 5.0, 5.75, 6.5, 7.25, 8.0, 8.75, 9.5)
ORACLE_GRID = {"bl12": _LOW_Q + (13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 17.0),
               "roy212": _LOW_Q + (12.75, 13.25, 13.75, 14.0, 14.25, 14.5, 14.75)}
DUALITY_GRID = (2.0, 6.0, 10.0)
DEEP_GRID = tuple(float(q) for q in range(0, 31, 2))
FAMILIES = {"bl12": bl_family(1, 2), "roy212": roy_family(2, 1, 2)}


def hex_mpf(x) -> str:
    """An mpf's exact `_mpf_` (sign, mantissa, exponent, bit count) in hex."""
    sign, man, exp, bc = x._mpf_
    return f"{sign}:{man:x}:{exp:x}:{bc:x}"


def unhex_mpf(text: str):
    """The mpf that `hex_mpf` wrote, with all its bits."""
    sign, man, exp, bc = (int(part, 16) for part in text.split(":"))
    with mpmath.workprec(max(bc, 53)):
        return mpmath.mpf((sign, man, exp, bc))


def grid(seed):
    return sorted(set(ORACLE_GRID[seed] + DUALITY_GRID + DEEP_GRID))


def record(seed, s):
    return {"seed": seed, "q": hex_mpf(s.q),
            "L": [hex_mpf(v) for v in s.L], "Lstar": [hex_mpf(v) for v in s.Lstar],
            "points": [list(p.as_tuple()) for p in s.points],
            "dual_points": [list(p.as_tuple()) for p in s.dual_points]}


@functools.cache
def builder(seed):
    """The candidate builder of the records of `seed`, one per seed."""
    bundle = make_bundle(FAMILIES[seed], SturmianProgram.all_ones())
    return paramgeo.CandidateBuilder(bundle, prec=256)


def records():
    out = []
    for seed in FAMILIES:
        cb = builder(seed)
        for q in grid(seed):
            out.append(dict(record(seed, paramgeo.minima_bruteforce(cb, mpmath.mpf(q))),
                            q_float=q))
    return out


def same_points(r, name, got) -> bool:
    """Whether the points `got` match the recorded r[name] ("points" or
    "dual_points"): each equal up to sign, or of the same exact key of
    `_size_keys` (a tie, which either point may win)."""
    cb, q = builder(r["seed"]), unhex_mpf(r["q"])
    p = cb.prec_for(q)
    with mpmath.workprec(p):
        key = paramgeo._size_keys(cb.u(p), q, p)[name == "dual_points"][0]
    want = [SymVec(*w) for w in r[name]]
    got = [SymVec(*x) for x in got]
    return len(got) == len(want) and all(x in (w, -w) or key(x) == key(w)
                                         for x, w in zip(got, want))


def _logs(r):
    return [r["q"], *r["L"], *r["Lstar"]]


def moved(old, new, same=None) -> list:
    """One line for each record of `new` that differs from its namesake in
    `old` (records pair up by position): its seed, q, the fields that moved
    and the largest |Δ| over q, L and L*.  `same(r, name, points)`, if
    given, forgives points that differ from the recorded ones."""
    lines = [] if len(old) == len(new) else [f"{len(old)} records recorded, {len(new)} computed"]
    for r, s in zip(old, new):
        fields = [name for name in r if r[name] != s.get(name)
                  and not (same and name.endswith("points") and same(r, name, s[name]))]
        if not fields:
            continue
        delta = max(abs(unhex_mpf(a) - unhex_mpf(b)) for a, b in zip(_logs(r), _logs(s)))
        q = r["q_float"] if "q_float" in r else mpmath.nstr(unhex_mpf(r["q"]), 8)
        tag = f" kinds={r['kinds']}" if "kinds" in r else ""
        lines.append(f"{r['seed']} q={q}{tag}: moved {', '.join(fields)}; "
                     f"largest |Δ| = {mpmath.nstr(delta, 3)}")
    return lines


def main(path=OUT, make=records, same=same_points):
    """Rewrite `path` with `make()`, or with `--check` compare without writing."""
    argv = sys.argv[1:]
    new = make()
    if argv == ["--check"]:
        lines = moved(json.loads(path.read_text()), new, same)
        print("\n".join(lines) or f"{path.name}: all {len(new)} records unchanged")
        return 1 if lines else 0
    if argv:
        raise SystemExit(f"usage: {pathlib.Path(sys.argv[0]).name} [--check]")
    path.write_text(json.dumps(new, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
