"""Benchmark of groupdecay's active-learning runs.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Repeats the workload's set-up and run for about S seconds (whole
repetitions only, none that would end past S, at least two), tops up the
set-ups to five with set-ups alone, checks every run's outputs and prints,
as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with nothing wrapped.  With
``--trace 1`` repetitions alternate between untraced and traced; the traced
ones record spans around the program's public functions, the metrics are
the per-layer ones and ``trace.overhead_s``, and the spans are written to
``bench/spans/<workload>-seed<N>.jsonl``.  ``--tiny`` shrinks every size so
a run takes seconds; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
MIN_REPETITIONS = 2
# set-ups timed per run: repetitions short of this are topped up with
# set-ups alone, so setup_s is a median of at least this many samples
SETUP_SAMPLES = 5

# One BLAS thread: the machine is shared and small, and one thread keeps
# the timings of the few matrix products steady.  Set before numpy loads;
# the external tagger's processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (imports numpy)
from tracing import Tracer, instrument, layer_metrics  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workload) -> dict:
    """Repetitions of set-up and run; returns the figures and findings."""
    tracer = Tracer() if args.trace else None
    setup_s: list[float] = []
    plain_run_s: list[float] = []
    traced_run_s: list[float] = []
    traced_ids: list[int] = []
    rounds: dict[int, list[float]] = {}
    fingerprints: list[list[str]] = []
    final_f1: list[float] = []
    problems: list[str] = []
    failures: list[str] = []
    attempted = 0
    started = time.perf_counter()
    rep = 0
    while True:
        rep_started = time.perf_counter()
        traced = tracer is not None and rep % 2 == 1
        active = tracer if traced else None
        scope = active.span if active is not None else (lambda name: contextlib.nullcontext())
        if active is not None:
            active.run_id = rep
            traced_ids.append(rep)
            instrument(active)
        gc.collect()  # every repetition starts from a collected heap
        try:
            t0 = time.perf_counter()
            with scope("bench.setup"):
                inputs = workload.setup(args.seed, rep, active)
            t1 = time.perf_counter()
            with scope("bench.run"):
                runs = workload.run(inputs, active)
            t2 = time.perf_counter()
        finally:
            if active is not None:
                active.unpatch()
        excluded = sum(r.recorder.excluded for r in runs)
        setup_s.append(t1 - t0)
        (traced_run_s if traced else plain_run_s).append(t2 - t1 - excluded)
        attempted += len(runs)
        failures += [f"repetition {rep}: {r.strategy}: {r.error}" for r in runs if not r.ok]
        for k, r in enumerate(runs):
            if not traced:
                rounds.setdefault(k, []).extend(r.recorder.round_times())
            problems += [f"repetition {rep}: {p}" for p in checks.check_run(r, inputs)]
        fingerprints.append([checks.fingerprint(r) for r in runs])
        if rep == 0:
            final_f1 = [r.recorder.checkpoints[-1].test_f1 for r in runs if r.ok]
            check_resume = getattr(workload, "check_resume", None)
            if check_resume is not None:
                resumed, found = check_resume(inputs)
                attempted += 1
                problems += found
                if not resumed.ok:
                    failures.append(f"resume: {resumed.error}")
        workload.cleanup(inputs)
        # the next repetition's peak memory must not include this one's data
        del inputs, runs
        rep += 1
        # stop before a repetition that would end past the deadline (if it
        # lasts as long as the last one), so a run lasts about --seconds
        # whatever the length of a repetition
        now = time.perf_counter()
        done = (now - started) + (now - rep_started) > args.seconds
        # a traced run ends on an untraced repetition after the first: see
        # trace.overhead_s below
        if done and rep >= MIN_REPETITIONS and (tracer is None or len(plain_run_s) > 1):
            break
    extra = rep
    while tracer is None and len(setup_s) < SETUP_SAMPLES:
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, extra, None)
        setup_s.append(time.perf_counter() - t0)
        workload.cleanup(inputs)
        del inputs
        extra += 1
    problems += checks.check_fingerprints(fingerprints)
    result = {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "fingerprints": fingerprints[0],
    }
    if tracer is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result["metrics"] = layer_metrics(
            # the first repetition runs cold (on blackbox-edg-div slower than
            # the second in each of ten runs, by 13% in the median) and the
            # traced ones warm, so the overhead is taken against the later
            # untraced repetitions
            spec["per_layer"], tracer, traced_ids, traced_run_s, plain_run_s[1:]
        )
        span_path = BENCH / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_path)
        result["spans"] = span_path
    else:
        result["metrics"] = {
            "run_s": {"value": statistics.median(plain_run_s), "unit": "s"},
            "round_s": {
                "value": statistics.fmean(statistics.median(v) for v in rounds.values() if v),
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "final_test_f1": {
                "value": statistics.fmean(final_f1) if final_f1 else 0.0,
                "unit": "F1",
            },
        }
    result["repetitions"] = rep
    result["run_s"] = plain_run_s
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "groupdecay" / "__init__.py").is_file():
        print(f"bench: the program's source is missing: {src / 'groupdecay'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH / "runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    kind = WORKLOADS[args.workload]
    workload = kind(TINY if args.tiny else kind.full, workdir)
    try:
        result = measure(args, workload)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in result["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"fingerprints {args.workload} seed {args.seed}: {' '.join(result['fingerprints'])}")
    print(f"repetitions: {result['repetitions']}; untraced run_s: "
          + " ".join(f"{v:.3f}" for v in result["run_s"]))
    if "spans" in result:
        print(f"spans: {result['spans'].relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": len(result["failures"]),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
