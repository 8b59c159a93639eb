"""Tests of the benchmark itself: each correctness check rejects a corrupted
answer, and every workload runs end to end in quick mode.

    python3 -m pytest sturmbench -q
"""
import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from sturmlab import cli, paramgeo  # noqa: E402


def _cli(tmp_path, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--json", "--out-dir", str(tmp_path)] + argv)
    return rc, buf.getvalue()


def test_verify_report_with_one_failure_is_rejected(tmp_path):
    rc, _ = _cli(tmp_path, ["--family", "bl", "--ab", "1,2", "verify", "--up-to", "10"])
    with open(tmp_path / "verify.json") as fh:
        data = json.load(fh)["data"]
    assert rc == 0 and checks.check_verify_report(data) == []
    bad = dict(data, identities_ok=False)
    assert checks.check_verify_report(bad)


@pytest.mark.parametrize("family,params", [("bl", (1, 2, 1)), ("roy", (2, 1, 2))])
def test_one_wrong_digit_of_xi_is_rejected(tmp_path, family, params):
    digits = 80
    flags = ["--family", family, "--ab" if family == "bl" else "--abc",
             ",".join(map(str, params[:2] if family == "bl" else params))]
    rc, out = _cli(tmp_path, flags + ["xi", "--digits", str(digits)])
    lo, hi = checks.xi_enclosure(family, params, workloads.FIB, int(digits * 3.33) + 64)
    assert rc == 0 and checks.check_xi_digits(out, lo, hi, digits) == []
    line = next(l for l in out.splitlines() if l.startswith("xi = "))
    for pos in (20, len(line) - 1):
        d = line[pos]
        wrong = out.replace(line, line[:pos] + str((int(d) + 1) % 10) + line[pos + 1:])
        assert checks.check_xi_digits(wrong, lo, hi, digits), pos


@pytest.fixture(scope="module")
def bl12_q5():
    setup = workloads.Setup([workloads.BL12])
    brute, cand = workloads._brute_answer(setup, workloads.BL12, 5.0).run({})
    lo, hi = checks.xi_enclosure(*workloads.BL12, 512)
    return brute, cand, lo, hi


def _check_exact(sample, lo, hi):
    return checks.check_minima(sample.q, sample.L, sample.Lstar,
                               [p.as_tuple() for p in sample.points],
                               [p.as_tuple() for p in sample.dual_points], lo, hi, 300, exact=True)


def test_bruteforce_above_candidate_is_rejected(bl12_q5):
    brute, cand, lo, hi = bl12_q5
    assert checks.check_oracle_below_candidate(brute.L, brute.Lstar, cand.L, cand.Lstar) == []
    with mpmath.workprec(256):
        raised = list(brute.L)
        raised[1] = cand.L[1] + mpmath.mpf("1e-6")
    assert checks.check_oracle_below_candidate(raised, brute.Lstar, cand.L, cand.Lstar)


def test_shifted_minimum_breaking_minkowski_is_rejected(bl12_q5):
    brute, _, lo, hi = bl12_q5
    assert _check_exact(brute, lo, hi) == []
    shifted = copy.copy(brute)
    with mpmath.workprec(256):
        (lo_sum, _), _ = checks.minkowski_bounds(mpmath.mpf(brute.q), checks.xi_float(lo, hi, 256))
        # L_1 lowered until L1+L2+L3 sits below Minkowski's lower bound
        shifted.L = (brute.L[0] - (sum(brute.L) - lo_sum) - 1, brute.L[1], brute.L[2])
    problems = _check_exact(shifted, lo, hi)
    assert any("Minkowski" in p for p in problems), problems


def test_recomputed_trajectory_must_match(bl12_q5):
    brute, _, lo, hi = bl12_q5
    moved = copy.copy(brute)
    with mpmath.workprec(256):
        moved.Lstar = (brute.Lstar[0], brute.Lstar[1], brute.Lstar[2] + mpmath.mpf("1e-20"))
    assert any("trajectory" in p for p in _check_exact(moved, lo, hi))


def test_empirical_exponent_off_by_005_is_rejected():
    ref = checks.golden_exponents()
    closed = dict(ref)
    emp = {n: ref[n] for n in checks.EMPIRICAL_NAMES}
    assert checks.check_exponents(emp, closed) == []
    for name in checks.EMPIRICAL_NAMES:
        assert checks.check_exponents(dict(emp, **{name: emp[name] + 0.05}), closed), name


def test_deep_w_reference():
    setup = workloads.Setup([workloads.ROY212])
    w = setup.bundle(workloads.ROY212).seq.w(12)
    assert checks.check_deep_w("roy", (2, 1, 2), workloads.FIB, 12, (w.a, w.b, w.c, w.d)) == []
    assert checks.check_deep_w("roy", (2, 1, 2), workloads.FIB, 12, (w.a + 1, w.b, w.c, w.d))


def test_duality_report_outside_mahler_is_rejected():
    lo, hi = checks.xi_enclosure(*workloads.BL12, 256)
    assert checks.check_duality_report({1: 0.1, 2: 0.2, 3: 0.3}, lo, hi) == []
    assert checks.check_duality_report({1: 0.1, 2: 5.0, 3: 0.3}, lo, hi)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload,failed", [("exact", 1), ("breakpoints", 0), ("oracle", 0)])
def test_quick_mode_runs_end_to_end(workload, failed):
    proc = _bench("--workload", workload, "--quick", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == failed and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "oracle", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == _declared("per_layer")
    assert metrics["kernels.collect_primal.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "sturmbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "sturmbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
