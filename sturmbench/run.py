"""sturmlab benchmark: one workload per invocation, printed as one JSON line.

    python3 sturmbench/run.py --workload {exact,breakpoints,oracle}
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from the root of a checkout; sturmlab is imported from its `src/`.  The
run repeats whole rounds of the workload's answers, single-threaded, until
`--seconds` is used up (at least three rounds), and checks every answer after
its round.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it spends half the time untraced and half traced and reports the
per-layer metrics, writing the spans and counts to `sturmbench/out/`.
`--quick` runs a small version of the workload once, for tests.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
# The reference loop measures the machine's momentary speed between answers.
# REF_SECONDS is its time on an uncontended core of the 2-core machine the
# reference figures in README.md come from.
REF_ITERATIONS = 200_000
REF_SECONDS = 0.0105


def import_sturmlab():
    """Import sturmlab from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    try:
        import sturmlab  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"sturmbench: cannot import sturmlab from {SRC}: {e}")
    if not os.path.abspath(sturmlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sturmbench: sturmlab came from {sturmlab.__file__}, not {SRC}")


def setup_probe(workload):
    """What a fresh process pays before its first answer: interpreter start,
    imports and the construction of seeds, programs and bundles.  Prints the
    time of a reference loop before and after the imports, so that the caller
    can scale by the speed of the core the probe ran on."""
    before = reference_loop()
    import numpy  # noqa: F401
    import mpmath  # noqa: F401
    import_sturmlab()
    import workloads
    workloads.Setup(workloads.WORKLOAD_CONFIGS[workload])
    print(before, reference_loop())


def measure_setup(workload, repeats) -> float:
    """Median probe time, less its two reference loops, scaled to reference
    speed by them."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                              workload], cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        t = time.perf_counter() - t0
        r0, r1 = (float(v) for v in out.split())
        times.append((t - r0 - r1) * 2 * REF_SECONDS / (r0 + r1))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def reference_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i
    return time.perf_counter() - t0


class Round:
    def __init__(self, times, raw_times, failed, problems, output_bytes):
        self.times = times                # per-answer seconds at reference speed
        self.raw_times = raw_times        # per-answer wall seconds, in slot order
        self.failed = failed              # names of answers the program did not give
        self.problems = problems          # (answer, problem) for wrong answers
        self.output_bytes = output_bytes


def run_round(wl, tracer=None) -> Round:
    from workloads import Failure

    ctx = {"references": wl.references}
    for a in wl.answers:
        if a.prepare:
            a.prepare(ctx)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    outs, raw, refs = [], [], [reference_loop()]
    for a in wl.answers:
        t0 = time.perf_counter()
        with span("bench.answer"):
            try:
                out = a.run(ctx)
            except Exception as e:   # the program failed to give this answer
                out = Failure(f"{type(e).__name__}: {e}")
        raw.append(time.perf_counter() - t0)
        refs.append(reference_loop())
        outs.append(out)
    # each answer's wall time at the speed the loops before and after it saw
    times = [t * 2 * REF_SECONDS / (r0 + r1) for t, r0, r1 in zip(raw, refs, refs[1:])]
    failed, problems, output_bytes = [], [], 0
    for a, out in zip(wl.answers, outs):
        try:
            if a.finish and not isinstance(out, Failure):
                out = a.finish(out)
            output_bytes += getattr(out, "output_bytes", 0)
            if getattr(out, "failed", False):
                failed.append(a.name)
                continue
            problems += [(a.name, p) for p in a.check(out, ctx)]
        except Exception as e:    # a check that cannot even read the answer rejects it
            problems.append((a.name, f"check raised {type(e).__name__}: {e}"))
    return Round(times, raw, failed, problems, output_bytes)


def run_phase(wl, seconds, min_rounds, tracer=None):
    """Whole rounds until the next one would end after `seconds`."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        if tracer is None:
            rounds.append(run_round(wl))
        else:
            with tracer.installed():
                rounds.append(run_round(wl, tracer))
        elapsed = time.perf_counter() - t0
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def answer_times(rounds, raw=False) -> list:
    """Each answer's median time over the rounds, at reference speed (or in
    wall seconds with `raw`)."""
    return [statistics.median(ts) for ts in zip(*(r.raw_times if raw else r.times
                                                    for r in rounds))]


def end_to_end(rounds, setup_s) -> dict:
    """run_s: the answers' times summed; answer_p50_s and answer_tail_s: the
    median and the highest percentile with at least ten answers beyond it."""
    per_answer = sorted(answer_times(rounds))
    tail = per_answer[-11] if len(per_answer) > 10 else per_answer[-1]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"run_s": (sum(per_answer), "s"),
              "setup_s": (setup_s, "s"),
              "peak_rss_mib": (peak_kib / 1024, "MiB"),
              "answer_p50_s": (statistics.median(per_answer), "s"),
              "answer_tail_s": (tail, "s")}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, traced, untraced) -> dict:
    from tracing import LAYER_FUNCTIONS, MAX_COUNTS, SUM_COUNTS

    n = len(traced)
    selfs = tracer.self_times()
    values = {}
    for mod, fn in LAYER_FUNCTIONS:
        s, calls = selfs.get(f"{mod}.{fn}", (0.0, 0))
        values[f"{mod}.{fn}.self_s"] = (s / n, "s")
        values[f"{mod}.{fn}.calls"] = (calls / n, "count")
    tracer.counts["cli.output_bytes"] = sum(r.output_bytes for r in traced)
    units = {"exactlin.max_bits": "bits", "paramgeo.max_prec_bits": "bits",
             "kernels.points_visited": "computed_count", "cli.output_bytes": "bytes"}
    for name in SUM_COUNTS:
        values[name] = (tracer.counts.get(name, 0) / n, units.get(name, "count"))
    for name in MAX_COUNTS:
        values[name] = (tracer.counts.get(name, 0), units.get(name, "count"))
    values["trace.unattributed_s"] = (selfs.get("bench.answer", (0.0, 0))[0] / n, "s")
    values["trace.overhead_s"] = (sum(answer_times(traced)) - sum(answer_times(untraced)), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("exact", "breakpoints", "oracle"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    import_sturmlab()
    import workloads
    from tracing import Tracer

    out_root = os.path.join(OUT, args.workload)
    wl = workloads.build(args.workload, args.seed, out_root, quick=args.quick)
    min_rounds = 1 if args.quick else 3
    seconds = 0.0 if args.quick else args.seconds
    if args.trace:
        tracer = Tracer()
        untraced = run_phase(wl, seconds / 2, 1)
        traced = run_phase(wl, seconds / 2, 1, tracer)
        rounds = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        setup_s = measure_setup(args.workload, 1 if args.quick else SETUP_REPEATS)
        rounds = run_phase(wl, seconds, min_rounds)
        metrics = end_to_end(rounds, setup_s)
    attempted = len(rounds) * len(wl.answers)
    failed = sum(len(r.failed) for r in rounds)
    problems = wl.problems + [f"{a}: {p}" for r in rounds for a, p in r.problems]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(wl.answers)} answers; attempted {attempted}, failed {failed}")
    for name in sorted({n for r in rounds for n in r.failed}):
        print(f"  failed: {name}")
    for p in sorted(set(problems)):
        print(f"  WRONG: {p}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  (wall seconds of the answers, unscaled: {sum(answer_times(rounds, raw=True)):.6g} s;"
          f" reference loop {REF_ITERATIONS} iterations, {REF_SECONDS} s at reference speed)")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
