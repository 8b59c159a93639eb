"""Regenerate tests/golden/candidates.json and tests/golden/cli.json.

candidates.json holds the candidate minima (`minima_candidates`, builders at
256 bits) of bl(1,2) and roy(2,1,2) on the Fibonacci program at every q of
bruteforce.json, and the breakpoint samples (`breakpoint_samples`) of bl(1,2)
on k 3:12 and of bl(1,2) on the period-2 program on k 3:7.  Each record holds
q, L and L* as hex `_mpf_` (see `make_bruteforce.hex_mpf`), the points and
dual points; a breakpoint record lists the [kind, k] of every sample it
holds (samples at one abscissa are one scoring).

cli.json holds, for every example of `CLI_EXAMPLES` (each README CLI example,
plus `verify` on more seed/program pairs), the exit code, stdout and every
emitted file, byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_candidates.py           # rewrite
    PYTHONPATH=src python tests/golden/make_candidates.py --check   # compare

`--check` recomputes every record, writes nothing, prints each record that
moved (seed, q, kind and k, which of L, L* and the points moved, the largest
|Δ|; for the CLI, the example and the outputs that moved) and exits 1 if any
did.  Regeneration rule: a change that moves a record lists it in CHANGES.md,
with the reason and the bound it moves within; a change that claims
bit-identity regenerates nothing.
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import mpmath

from sturmlab import paramgeo
from sturmlab.approx import make_bundle
from sturmlab.cli import main as cli_main
from sturmlab.matseq import bl_family
from sturmlab.sturm import SturmianProgram

from make_bruteforce import FAMILIES, builder, grid, main, record

OUT = pathlib.Path(__file__).with_name("candidates.json")
CLI_OUT = pathlib.Path(__file__).with_name("cli.json")

# (label, program, k window) of the breakpoint samples of bl(1,2)
BREAKPOINT_SYSTEMS = (("bl12", SturmianProgram.all_ones(), (3, 12)),
                      ("bl12_p2", SturmianProgram([-1, 1], [2]), (3, 7)))


def _verify(seed_flags, period):
    """`verify --up-to 14` on a seed and a program of the given period."""
    program = [] if period == "1" else ["--program", f"prefix=[-1,1];period=[{period}]"]
    return seed_flags + program + ["--json", "verify", "--up-to", "14"]


BL12, ROY212 = ["--family", "bl", "--ab", "1,2"], ["--family", "roy", "--abc", "2,1,2"]

# the README examples and `verify` to t_14 on five seed/program pairs, each run
# with --json and a fresh --out-dir
CLI_EXAMPLES = {
    "three-system": BL12 + ["--csv", "--svg", "--json",
                            "three-system", "--k", "3:12", "--samples", "40"],
    "exponents": BL12 + ["--json", "exponents", "--empirical", "--k", "6:12"],
    "xi": BL12 + ["--json", "xi", "--digits", "60"],
    "gray": ROY212 + ["--json", "gray", "--i", "5"],
    "spectrum-endpoints": ["--json", "spectrum", "--endpoints"],
    "spectrum": ["--json", "spectrum"],
    "verify-bl12-1": _verify(BL12, "1"),
    "verify-bl12-2": _verify(BL12, "2"),
    "verify-roy212-1": _verify(ROY212, "1"),
    "verify-roy212-2": _verify(ROY212, "2"),
    "verify-roy278-1,2": _verify(["--family", "roy", "--abc", "2,7,8"], "1,2"),
}


def records():
    out = []
    for seed in FAMILIES:
        cb = builder(seed)
        for q in grid(seed):
            out.append(dict(record(seed, paramgeo.minima_candidates(cb, mpmath.mpf(q))),
                            q_float=q))
    for seed, prog, window in BREAKPOINT_SYSTEMS:
        bundle = make_bundle(bl_family(1, 2), prog)
        P = paramgeo.predicted_system(bundle, window, prec=256)
        # samples that share an abscissa share one record, listing their kinds
        kinds = {}
        for s in paramgeo.breakpoint_samples(paramgeo.CandidateBuilder(bundle, prec=256), P):
            kinds.setdefault(json.dumps(record(seed, s)), []).append([s.kind, s.k])
        out += [dict(json.loads(r), kinds=ks) for r, ks in kinds.items()]
    return out


def run_cli(argv):
    """Exit code, stdout and emitted files of the CLI on `argv`, run in
    process with a fresh --out-dir."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli_main(["--out-dir", tmp] + argv)
        files = {f.name: f.read_bytes().decode() for f in sorted(pathlib.Path(tmp).iterdir())}
    return {"code": code, "stdout": out.getvalue(), "files": files}


def cli_records():
    return {name: run_cli(argv) for name, argv in CLI_EXAMPLES.items()}


def cli_moved(old, new) -> list:
    """One line for each example whose exit code, stdout or files moved."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        r, s = old.get(name, {}), new.get(name, {})
        fields = [f for f in ("code", "stdout") if r.get(f) != s.get(f)]
        files = r.get("files", {}), s.get("files", {})
        fields += [f for f in sorted(files[0].keys() | files[1].keys())
                   if files[0].get(f) != files[1].get(f)]
        if fields:
            lines.append(f"cli {name}: moved {', '.join(fields)}")
    return lines


if __name__ == "__main__":
    code = main(OUT, records, same=None)
    new = cli_records()
    if sys.argv[1:] == ["--check"]:
        lines = cli_moved(json.loads(CLI_OUT.read_text()), new)
        print("\n".join(lines) or f"{CLI_OUT.name}: all {len(new)} examples unchanged")
        code |= bool(lines)
    else:
        CLI_OUT.write_text(json.dumps(new, indent=0) + "\n")
    sys.exit(code)
