import json
import pathlib
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from sturmlab import cli
from sturmlab.approx import PROVED, gray_fan, make_bundle
from sturmlab.cli import main
from sturmlab.exactlin import IntMat2
from sturmlab.matseq import MatrixSeed, roy_family, solve_admissibility
from sturmlab.paramgeo import predicted_system
from sturmlab.sturm import SturmianProgram
from sturmlab.xi import xi_value

from make_candidates import CLI_EXAMPLES
from test_approx import _fan_statements


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "--family", "roy", "--abc", "2,1,2",
                       "verify", "--up-to", "6")
    assert code == 0
    assert "instances  ok" in out
    assert "FAIL" not in out


README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_lists_the_verified_families(capsys, tmp_path):
    """The families the README lists under `verify` as checked are the `checks`
    keys of `verify --json`, the same on the Fibonacci and period-2 programs;
    those it lists as proved are `approx.PROVED`, in order, which `verify.json`
    holds under `proved`."""
    section = README.split("`verify --up-to k` checks each identity family", 1)[1]
    checked, proved = [p for p in section.split("\n\n") if p.startswith("- `")][:2]
    listed = set(re.findall(r"^- `(\w+)`", checked, re.M))
    assert re.findall(r"^- `(\w+)`", proved, re.M) == list(PROVED)
    keys = {}
    for period in ("1", "2"):
        run_dir = tmp_path / period
        argv = ["--family", "roy", "--abc", "2,1,2", "--program", f"prefix=[-1,1];period=[{period}]",
                "--json", "--out-dir", str(run_dir), "verify", "--up-to", "8"]
        assert main(argv) == 0
        data = json.loads((run_dir / "verify.json").read_text())["data"]
        keys[period] = set(data["checks"])
        assert data["proved"] == list(PROVED)
    out = capsys.readouterr().out
    assert keys["1"] == keys["2"] == listed
    assert out.count("proved, not checked: " + ", ".join(PROVED) + "\n") == 2


def _without_json_and_out_dir(argv):
    out = list(argv)
    if "--out-dir" in out:
        i = out.index("--out-dir")
        del out[i:i + 2]
    return [a for a in out if a != "--json"]


def test_readme_examples_are_golden_records():
    """Every `sturmlab ...` line of the README's CLI block, with its `\\`
    continuations joined, is the argv of a golden CLI record once `--json`
    and `--out-dir X` are dropped from both."""
    block = README.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("sturmlab ")]
    assert len(lines) == 7
    golden = [_without_json_and_out_dir(argv) for argv in CLI_EXAMPLES.values()]
    for line in lines:
        assert _without_json_and_out_dir(line[1:]) in golden, line


@pytest.mark.parametrize("abc", ["2,1,1", "3,2,2"])
def test_verify_passes_on_tr_jn_zero_seeds(capsys, abc):
    """Every integer divides the zero content bound of a Tr(JN) = 0 seed."""
    code, out, _ = run(capsys, "--family", "roy", "--abc", abc, "verify", "--up-to", "10")
    assert code == 0
    assert out.startswith("warning: not proper-capable (Tr(JN)=0)")
    assert "bounded: True" in out
    assert "witness" not in out


@pytest.mark.parametrize("flags, shape", [
    (["--family", "bl", "--ab", "1,2"], None),
    (["--family", "roy", "--abc", "2,1,2"], "shape_ok=True"),
])
def test_verify_prints_the_shape_certificate_only_for_roy(capsys, flags, shape):
    """Roy's entrywise shape is printed only for roy seeds; bl seeds pass the
    growth check on its mirror image, which is not printed."""
    code, out, _ = run(capsys, *flags, "verify", "--up-to", "8")
    assert code == 0
    growth = [line for line in out.splitlines() if line.startswith("multiplicative growth")]
    assert len(growth) == 1
    if shape is None:
        assert "shape_ok" not in out
    else:
        assert growth[0].endswith(shape)


def test_verify_json_deterministic(capsys, tmp_path):
    args = ["--family", "bl", "--ab", "1,2", "--out-dir", str(tmp_path),
            "--json", "verify", "--up-to", "5"]
    assert main(list(args)) == 0
    first = (tmp_path / "verify.json").read_text()
    assert main(list(args)) == 0
    assert (tmp_path / "verify.json").read_text() == first
    doc = json.loads(first)
    assert doc["schema"] == "sturmlab/1"
    assert doc["data"]["identities_ok"] is True
    assert doc["data"]["hypothesis_holds"] is True
    capsys.readouterr()


def test_verify_json_says_when_the_hypothesis_fails(capsys, tmp_path, monkeypatch):
    """On a seed whose coprimality hypothesis fails, verify.json says so, as
    stdout does, and `ladder_coprime` is absent from `checks`.  No roy or bl
    seed of the CLI is known to reach this, so the seed is swapped in."""
    w0, w1 = IntMat2(0, 1, 1, 0), IntMat2(0, 2, 2, 1)
    seed = MatrixSeed(w0, w1, solve_admissibility(w0, w1), family="custom", params=())
    monkeypatch.setattr(cli, "build_seed", lambda cfg: seed)
    main(["--out-dir", str(tmp_path), "--json", "verify", "--up-to", "6"])
    out = capsys.readouterr().out
    data = json.loads((tmp_path / "verify.json").read_text())["data"]
    assert "does not hold; ladder_coprime not checked" in out
    assert data["hypothesis_holds"] is False
    assert data["checks"] == {"coprimality_hypothesis": 1}


def test_verify_past_int_digit_limit(capsys):
    # at depth 18 the rungs of the w ladder have more than 4300 decimal digits;
    # the growth scan reads only their enclosures, and no verify step may touch
    # the interpreter's limit on int-to-decimal conversion
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "--family", "roy", "--abc", "2,1,2",
                       "verify", "--up-to", "18")
    assert code == 0
    assert "multiplicative growth ratios in [1.08" in out
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("flags", [["--family", "bl", "--ab", "1,2"],
                                   ["--family", "roy", "--abc", "2,1,2"]])
def test_verify_at_depth_40(capsys, tmp_path, flags):
    """Past the growth scan's k <= 18, verify reads only ladder residues and
    proved forms, so depth 40 passes on the Fibonacci program."""
    code, out, _ = run(capsys, *flags, "--out-dir", str(tmp_path), "--json",
                       "verify", "--up-to", "40")
    data = json.loads((tmp_path / "verify.json").read_text())["data"]
    assert code == 0
    assert (data["identities_ok"], data["contents_ok"], data["growth_ok"]) == (True, True, True)
    assert data["checks"] == {"coprimality_hypothesis": 1, "ladder_coprime": 117}


def test_verify_growth_range_at_depth_24_on_period_2(capsys, tmp_path):
    """The growth scan reads p-bit enclosures of the rungs, so depth 24 on the
    period-2 program passes, and its range (k <= 18) is the one printed at
    depth 12."""
    flags = ("--family", "roy", "--abc", "2,1,2", "--program", "prefix=[-1,1];period=[2]")

    def growth_line(out):
        return next(line for line in out.splitlines()
                    if line.startswith("multiplicative growth ratios"))

    code, out, _ = run(capsys, *flags, "--out-dir", str(tmp_path), "--json",
                       "verify", "--up-to", "24")
    data = json.loads((tmp_path / "verify.json").read_text())["data"]
    assert code == 0
    assert (data["identities_ok"], data["contents_ok"], data["growth_ok"]) == (True, True, True)
    code12, out12, _ = run(capsys, *flags, "verify", "--up-to", "12")
    assert code12 == 0
    assert growth_line(out) == growth_line(out12)


def test_xi_json_past_int_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    code, _, _ = run(capsys, "--family", "roy", "--abc", "2,1,2", "--out-dir", str(tmp_path),
                     "--json", "xi", "--digits", "6000")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    data = json.loads((tmp_path / "xi.json").read_text())["data"]
    # Decimal parses past the digit limit, as the writer does
    lo, hi = (Fraction(*(int(Decimal(part)) for part in data[key].split("/")))
              for key in ("xi_lo", "xi_hi"))
    xv = xi_value(make_bundle(roy_family(2, 1, 2), SturmianProgram.all_ones()),
                  int(6000 * 3.33) + 32)
    assert (lo, hi) == (xv.lo, xv.hi)
    assert len(data["xi_lo"]) > 2 * 4300


def test_three_system_valid_and_invalid(capsys, tmp_path):
    code, out, _ = run(capsys, "--family", "bl", "--ab", "1,2",
                       "three-system", "--k", "3:8")
    assert code == 0 and "valid 3-system" in out
    code, out, _ = run(capsys, "--family", "bl", "--ab", "1,2",
                       "three-system", "--k", "3:8", "--force-delta", "0.5")
    assert code == 1 and "not a 3-system" in out


def test_three_system_outputs(capsys, tmp_path):
    code, _, _ = run(capsys, "--family", "bl", "--ab", "1,2",
                     "--out-dir", str(tmp_path), "--json", "--csv", "--svg",
                     "three-system", "--k", "3:8", "--samples", "3")
    assert code == 0
    csv = (tmp_path / "three_system.csv").read_text()
    assert csv.splitlines()[1] == "q,L1,L2,L3,P1,P2,P3,gray_flag"
    assert len(csv.splitlines()) == 2 + 3
    svg = (tmp_path / "three_system.svg").read_text()
    assert svg.startswith("<svg")
    doc = json.loads((tmp_path / "three_system.json").read_text())
    assert doc["data"]["valid"] is True


def test_exponents_table(capsys):
    code, out, _ = run(capsys, "--family", "bl", "--ab", "1,2", "exponents")
    assert code == 0
    assert "omega2_hat" in out and "2.618" in out


@pytest.mark.parametrize("abc", [(2, 3, 4), (2, 2, 3)])
def test_exponents_and_three_system_share_delta(capsys, abc):
    code, out, _ = run(capsys, "--family", "roy", "--abc", ",".join(map(str, abc)),
                       "exponents")
    assert code == 0
    printed = out.split("delta=")[1].split()[0]
    P = predicted_system(make_bundle(roy_family(*abc), SturmianProgram.all_ones()), (3, 7))
    assert printed == mpmath.nstr(P.delta, 10)


def test_exponents_period_2_improper_within_budget(capsys):
    # ||w_k|| grows like the Pell numbers here; the bit budget stops delta_hat at k = 10
    start = time.perf_counter()
    code, out, _ = run(capsys, "--family", "roy", "--abc", "2,1,2",
                       "--program", "prefix=[-1,1];period=[2]", "exponents")
    assert time.perf_counter() - start < 10
    assert code == 1
    assert "improper seed" in out


def test_exponents_long_prefix(capsys):
    # sigma depends only on the periodic tail, however long the prefix
    code, out, _ = run(capsys, "--family", "bl", "--ab", "1,2",
                       "--program", "prefix=[-1,1" + ",2" * 18 + "];period=[1]", "exponents")
    assert code == 0
    assert "sigma=0.6180339887 " in out


def test_xi_cross_check(capsys):
    code, out, _ = run(capsys, "--family", "bl", "--ab", "1,2",
                       "xi", "--digits", "30")
    assert code == 0
    assert "0.720484667632" in out
    assert "-> ok" in out


def test_gray(capsys):
    """`gray` lists as proved exactly the statements that the tests form on
    the fan (`_fan_statements`)."""
    code, out, _ = run(capsys, "--family", "roy", "--abc", "2,1,2",
                       "gray", "--i", "4")
    assert code == 0
    bundle = make_bundle(roy_family(2, 1, 2), SturmianProgram.all_ones())
    statements = _fan_statements(bundle, gray_fan(bundle, 4))
    assert out.splitlines()[-1] == "proved, not checked: " + ", ".join(statements)


def test_gray_literal_content_pairs_informational(capsys):
    # at i = 3 the literal c_m c_{m+1} | d_i fails while the relaxed form is
    # proved, so the run succeeds and reports the literal check as False
    code, out, _ = run(capsys, "--family", "roy", "--abc", "2,1,2",
                       "gray", "--i", "3")
    assert code == 0
    assert "contents=[1, 2, 1, 1, 16, 1] content_pairs_ok=False" in out
    assert "content_pairs_relaxed" in out.splitlines()[-1]


def test_gray_non_fibonacci_program(capsys):
    code, out, err = run(capsys, "--family", "roy", "--abc", "2,1,2",
                         "--program", "prefix=[-1,1];period=[2]",
                         "gray", "--i", "4")
    assert code == 2


def test_spectrum_endpoints(capsys):
    code, out, _ = run(capsys, "spectrum", "--endpoints")
    assert code == 0
    assert "3.23606797749979" in out
    assert out.count("interval_") == 3


def test_spectrum_sweep(capsys):
    code, out, _ = run(capsys, "spectrum")
    assert code == 0
    assert "45 triples" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "--family", "roy", "--abc", "2,1", "verify")
    assert code == 2
    code, _, err = run(capsys, "--family", "bl", "--ab", "1,2",
                       "three-system", "--k", "3:4")
    assert code == 2 and "too narrow" in err


@pytest.mark.parametrize("argv, message", [
    (["--family", "bl", "--ab", "0,2"], "need a, b, s1' >= 1"),
    (["--family", "bl", "--ab", "2,2"], "need a != b"),
    (["--family", "roy", "--abc", "1,1,1"], "need a >= 2 and c >= b >= 1"),
    (["--family", "roy", "--abc", "2,3,1"], "need a >= 2 and c >= b >= 1"),
    (["--family", "roy", "--abc", "2,1,2", "--program", "period=[0]"], "cannot parse"),
    (["--family", "roy", "--abc", "2,1,2", "--program", "garbage"], "cannot parse"),
    (["--family", "roy", "--abc", "2,1,2", "--program", "prefix=[-1,1];period=[0]"],
     "period terms must be >= 1"),
])
def test_bad_seed_or_program_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv, "verify", "--up-to", "4")
    assert code == 2 and err.startswith("usage error: bad ") and message in err
    assert out == ""


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_verify_depth_below_one_is_a_usage_error(capsys, depth):
    code, out, err = run(capsys, "--family", "roy", "--abc", "2,1,2", "verify", "--up-to", depth)
    assert code == 2 and f"--up-to must be >= 1, got {depth}" in err
    assert out == ""


def test_seed_file_overridden_by_flags(capsys, tmp_path):
    seed = tmp_path / "seed.cfg"
    seed.write_text("family=roy\nabc=3,1,3\n# comment\n")
    code, out, _ = run(capsys, "--seed-file", str(seed), "verify", "--up-to", "5")
    assert code == 0
    # CLI flag wins over the file value
    code, out, _ = run(capsys, "--seed-file", str(seed),
                       "--family", "bl", "--ab", "1,2", "xi", "--digits", "20")
    assert code == 0 and "0.7204846676" in out


BL12 = ["--family", "bl", "--ab", "1,2"]
ROY212 = ["--family", "roy", "--abc", "2,1,2"]


@pytest.mark.parametrize("seed, argv, flag", [
    (None, BL12 + ["three-system", "--k", "3:8", "--force-delta", "abc"], "--force-delta"),
    (None, BL12 + ["three-system", "--k", "3:8", "--force-delta", "nan"], "--force-delta"),
    (None, BL12 + ["three-system", "--k", "3:8", "--force-delta", "inf"], "--force-delta"),
    (None, BL12 + ["--precision", "0", "exponents"], "--precision"),
    (None, BL12 + ["--precision", "32", "exponents"], "--precision"),
    ("family=bl\nab=1,2\nprecision=32\n", ["exponents"], "--precision"),
    ("family=bl\nab=1,2\nprecision=y\n", ["verify", "--up-to", "3"], "--precision"),
    ("family=bl\nab=1,2\ns1=x\n", ["verify", "--up-to", "3"], "--s1"),
    (None, BL12 + ["xi", "--digits", "-20"], "--digits"),
    (None, BL12 + ["xi", "--digits", "0"], "--digits"),
    (None, BL12 + ["three-system", "--k", "3:8", "--samples", "-1"], "--samples"),
    (None, ROY212 + ["gray", "--i", "1"], "--i"),
    (None, BL12 + ["gray", "--i", "3"], "--i"),
    (None, ROY212 + ["--program", "prefix=[-1,1];period=[2]", "gray", "--i", "4"], "--program"),
    (None, BL12 + ["exponents", "--empirical", "--k", "3:4"], "--k"),
    (None, BL12 + ["exponents", "--empirical", "--k", "9:3"], "--k"),
    (None, BL12 + ["three-system", "--k", "0:4"], "--k"),
])
def test_bad_input_is_a_usage_error(capsys, tmp_path, seed, argv, flag):
    if seed is not None:
        (tmp_path / "seed.cfg").write_text(seed)
        argv = ["--seed-file", str(tmp_path / "seed.cfg")] + argv
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith(f"usage error: {flag} ")
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv, code, written", [
    (BL12 + ["verify", "--up-to", "5"], 0, ["verify.json"]),
    (BL12 + ["three-system", "--k", "3:8"], 0, ["three_system.json"]),
    (BL12 + ["exponents"], 0, ["exponents.json"]),
    (BL12 + ["xi", "--digits", "20"], 0, ["xi.json"]),
    (ROY212 + ["gray", "--i", "4"], 0, ["gray.json"]),
    (["spectrum", "--endpoints"], 0, ["spectrum.json"]),
    (["spectrum"], 0, ["spectrum.json"]),
    (ROY212 + ["exponents"], 1, []),                  # improper seed: a verdict, no data
    (BL12 + ["xi", "--digits", "0"], 2, []),
])
def test_json_envelope_per_command(capsys, tmp_path, argv, code, written):
    texts = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        assert main(["--json", "--out-dir", str(run_dir)] + argv) == code
        assert sorted(p.name for p in run_dir.glob("*")) == written
        texts.append([(run_dir / name).read_text() for name in written])
    assert texts[0] == texts[1]
    for text in texts[0]:
        doc = json.loads(text)
        assert sorted(doc) == ["config", "data", "schema"] and doc["schema"] == "sturmlab/1"
    capsys.readouterr()
