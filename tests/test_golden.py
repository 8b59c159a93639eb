"""The golden corpus of tests/golden (see its generators make_bruteforce.py and
make_candidates.py, whose `--check` prints what moved).

Brute-force minima: L and L* must equal the recorded `_mpf_` exactly, and
each point must equal the recorded one up to sign or have the same exact key
of `_size_keys` (a tie).  Candidate minima and breakpoint samples must equal
their records exactly, points included.  The CLI examples (every README
example, and `verify` on five seed/program pairs) must reproduce their exit
code, stdout and emitted files byte for byte."""
import json
import pathlib

import mpmath
import pytest

from sturmlab import paramgeo

import make_candidates
from make_bruteforce import FAMILIES, hex_mpf, moved, same_points

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
        for name, got in (("points", s.points), ("dual_points", s.dual_points)):
            assert same_points(r, name, [x.as_tuple() for x in got]), (label, name, got, r[name])


def test_candidates_match_golden():
    """Candidate minima at every q of bruteforce.json and the breakpoint
    samples of bl(1,2) (k 3:12) and of its period-2 program (k 3:7)."""
    golden = json.loads(make_candidates.OUT.read_text())
    assert len(golden) > 100
    assert moved(golden, make_candidates.records()) == []


@pytest.mark.parametrize("name", sorted(make_candidates.CLI_EXAMPLES))
def test_cli_example_matches_golden(name):
    golden = json.loads(make_candidates.CLI_OUT.read_text())[name]
    assert golden["code"] == 0 and golden["files"]
    assert make_candidates.run_cli(make_candidates.CLI_EXAMPLES[name]) == golden
