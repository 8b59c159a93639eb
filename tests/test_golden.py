"""The brute-force minima against the records of tests/golden/bruteforce.json
(written by tests/golden/make_bruteforce.py): L and L* must equal the
recorded `_mpf_` exactly, and each point must equal the recorded one up to
sign or have the same exact key of `_size_keys` (a tie)."""
import json
import pathlib

import mpmath
import pytest

from sturmlab import paramgeo
from sturmlab.exactlin import SymVec

from make_bruteforce import FAMILIES, hex_mpf

GOLDEN = pathlib.Path(__file__).with_name("golden")

RECORDS = json.loads((GOLDEN / "bruteforce.json").read_text())


@pytest.mark.parametrize("seed", sorted(FAMILIES))
def test_bruteforce_matches_golden(request, seed):
    cb = paramgeo.CandidateBuilder(request.getfixturevalue(seed), prec=256)
    records = [r for r in RECORDS if r["seed"] == seed]
    assert len(records) > 30
    for r in records:
        s = paramgeo.minima_bruteforce(cb, mpmath.mpf(r["q_float"]))
        label = (seed, r["q_float"])
        assert hex_mpf(s.q) == r["q"], label
        assert [hex_mpf(v) for v in s.L] == r["L"], label
        assert [hex_mpf(v) for v in s.Lstar] == r["Lstar"], label
        p = cb.prec_for(s.q)
        with mpmath.workprec(p):
            keys = [key for key, _ in paramgeo._size_keys(cb.u(p), s.q, p)]
        for key, got, want in ((keys[0], s.points, r["points"]), (keys[1], s.dual_points, r["dual_points"])):
            for x, w in zip(got, (SymVec(*w) for w in want)):
                assert x in (w, -w) or key(x) == key(w), (label, x, w)
