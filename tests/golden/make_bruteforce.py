"""Regenerate tests/golden/bruteforce.json: the brute-force minima of bl(1,2)
and roy(2,1,2) (Fibonacci program, candidate builders at 256 bits) on the
unshifted q grids of the benchmark's `oracle` workload, its duality grid and
the deep Mahler-duality grid of acceptance criterion 8.

Each record holds q, L and L* as hex `_mpf_` (see `hex_mpf`) and the primal
and dual points.  Run from the repository root:

    PYTHONPATH=src python tests/golden/make_bruteforce.py
"""
from __future__ import annotations

import json
import pathlib

import mpmath

from sturmlab import paramgeo
from sturmlab.approx import make_bundle
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


def grid(seed):
    return sorted(set(ORACLE_GRID[seed] + DUALITY_GRID + DEEP_GRID))


def record(seed, s):
    return {"seed": seed, "q": hex_mpf(s.q),
            "L": [hex_mpf(v) for v in s.L], "Lstar": [hex_mpf(v) for v in s.Lstar],
            "points": [list(p.as_tuple()) for p in s.points],
            "dual_points": [list(p.as_tuple()) for p in s.dual_points]}


def main():
    records = []
    for seed, family in FAMILIES.items():
        cb = paramgeo.CandidateBuilder(make_bundle(family, SturmianProgram.all_ones()), prec=256)
        for q in grid(seed):
            records.append(dict(record(seed, paramgeo.minima_bruteforce(cb, mpmath.mpf(q))),
                                q_float=q))
    OUT.write_text(json.dumps(records, indent=0) + "\n")


if __name__ == "__main__":
    main()
