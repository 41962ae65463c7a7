"""kernel-lab benchmark: time to a verified answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli-defaults,kernel,getoor}
                         --seed N --seconds S --trace {0,1}

All load comes from this one single-threaded process; the BLAS/OpenMP
thread pools are capped at one thread before numpy is imported.  The
workload's inputs are drawn once from the seed.  After set-up, a cold
pass runs first (what one CLI invocation pays), then warm passes for as
long as the next pass is expected to end within S seconds of the cold
pass's start (at least one).  Every operation of every pass is checked
(see workloads.py).

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh interpreters of importing kernel_lab and
               kernel_lab.cli and loading the packaged defaults and the
               scenario of every command;
  setup_rss_mb peak resident memory of those interpreters;
  run_s        median over the warm passes of the pass's seconds scaled
               to a fixed machine speed (calibrate.py): each stretch of
               about a second of work is bracketed by runs of a fixed
               reference computation and scaled by REFERENCE_S over their
               mean time, which takes out the host's slow and fast phases.
               The plain wall seconds of the warm passes and of the cold
               pass, and every reference time, are kept in the run's
               details file;
  pass_ratio   operations that gave a verified answer over operations
               attempted (fail_ratio = 1 - pass_ratio; a known refusal
               lowers it, though it is not counted as failed);
  peak_rss_mb  peak resident memory of this process.
--trace 1 prints the per-layer metrics of layers.py: after the cold pass,
traced and untraced passes alternate; counts come from the first traced
pass and must repeat exactly in every later one; times are medians over
the traced passes; trace_overhead_s is the median traced pass minus the
median untraced warm pass, both in plain wall seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Per-run details (environment,
per-metric samples and quartiles, the failure ledger) go to
bench/out/<workload>/, and the spans of the first traced pass to
bench/out/<workload>/spans.json.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = 1

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import kernel_lab, kernel_lab.cli; "
    "from kernel_lab.scenarios import COMMANDS, load_scenario; "
    "[load_scenario(c) for c in COMMANDS]"
)


def cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREAD_CAP, os.cpu_count() or 1))


def capture_env():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure_setup():
    """Wall seconds of SETUP_REPEATS fresh interpreters doing the set-up.

    These are not speed-scaled: set-up is mostly importing scipy, whose
    file and loader work the reference computation does not track (scaling
    widened the spread over seeds)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, timeout=120, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def _max_rss_mb(who):
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_in_process():
    """The same set-up as SETUP_CODE, in this process."""
    import kernel_lab  # noqa: F401
    import kernel_lab.cli  # noqa: F401
    from kernel_lab.scenarios import COMMANDS, load_scenario

    for command in COMMANDS:
        load_scenario(command)


def stats(samples):
    out = {"median": statistics.median(samples), "n": len(samples), "samples": samples}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


class Runner:
    """Runs passes over one workload's operations and keeps the ledger."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.fingerprints = [None] * len(ops)
        self.ledger = []
        self.attempted = 0
        self.unverified = 0  # refused or wrong
        self.failed = 0  # wrong, or refused where no refusal is known
        self.wrong = 0
        self.passes = 0

    def run_pass(self, traced=False, clock=None):
        from calibrate import BRACKET_S
        from workloads import KNOWN_REFUSALS, OK, REFUSED, WRONG, Outcome, run_operation

        total = 0.0
        if clock:
            clock.start()
        for i, op in enumerate(self.ops):
            if clock:
                clock.split(BRACKET_S)
            elapsed, outcome = run_operation(op)
            total += elapsed
            if clock:
                clock.add(elapsed)
            if outcome.status == OK:
                if self.fingerprints[i] is None:
                    self.fingerprints[i] = outcome.fingerprint
                elif outcome.fingerprint != self.fingerprints[i]:
                    outcome = Outcome(WRONG, "result differs from the first pass")
            self.attempted += 1
            if outcome.status != OK:
                labels = op.labels
                known = outcome.status == REFUSED and (
                    labels["call"], labels["domain"], labels["a"]) in KNOWN_REFUSALS
                self.unverified += 1
                self.failed += not known
                self.wrong += outcome.status == WRONG
                self.ledger.append({
                    "workload": self.workload,
                    "pass": self.passes,
                    "traced": traced,
                    **labels,
                    "status": outcome.status,
                    "error": outcome.error,
                    "known": known,
                })
        if clock:
            clock.split()
        self.passes += 1
        return total


def run_plain(runner, seconds):
    """A cold pass, then warm passes, each with its own Clock, while the
    next one, expected to take as long as the last, ends within `seconds`
    of the cold pass's start."""
    from calibrate import Clock

    t_start = time.perf_counter()
    cold = runner.run_pass()
    clocks, last = [], 0.0
    while not clocks or time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        clocks.append(Clock())
        runner.run_pass(clock=clocks[-1])
        last = time.perf_counter() - t0
    return cold, clocks


def run_traced(runner, seconds, spans_path):
    from tracing import Tracer

    t_start = time.perf_counter()
    runner.run_pass()
    counts, summaries, traced_s, untraced_s = None, [], [], []
    repeatable = True
    while (not traced_s or time.perf_counter() - t_start + traced_s[-1] + untraced_s[-1]
           <= seconds):
        tracer = Tracer()
        tracer.install()
        try:
            origin = time.perf_counter()
            traced_s.append(runner.run_pass(traced=True))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if counts is None:
            counts = dict(tracer.counts)
            spans_path.write_text(json.dumps(tracer.spans(origin)), encoding="utf-8")
        elif dict(tracer.counts) != counts:
            repeatable = False
        untraced_s.append(runner.run_pass())
    return counts, summaries, traced_s, untraced_s, repeatable


def main(argv=None):
    cap_threads()
    from layers import LAYER_METRICS, metric_value
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a u64")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "kernel_lab" / "__init__.py").is_file():
        print(f"bench: no kernel_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_in_process()
    import kernel_lab

    if Path(kernel_lab.__file__).resolve().parent != SRC / "kernel_lab":
        print(f"bench: imported kernel_lab from {kernel_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out_dir = BENCH / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    env = capture_env()
    runner = Runner(args.workload, WORKLOADS[args.workload](args.seed, out_dir / "work"))
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env}
    correct = True

    if args.trace == 0:
        setup = measure_setup()
        cold, clocks = run_plain(runner, args.seconds)
        warm = [clock.scaled_s() for clock in clocks]
        details["samples"] = {
            "setup_s": stats(setup),
            "run_s": stats(warm),
            "run_wall_s": stats([clock.wall_s() for clock in clocks]),
            "cold_run_wall_s": stats([cold]),
            "reference_s": stats([t for clock in clocks for t in clock.reference_s]),
        }
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "setup_rss_mb": (_max_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
            "run_s": (statistics.median(warm), "s"),
            "pass_ratio": (1.0 - runner.unverified / runner.attempted, "ratio"),
            "peak_rss_mb": (_max_rss_mb(resource.RUSAGE_SELF), "MB"),
        }
    else:
        counts, summaries, traced_s, untraced_s, repeatable = run_traced(
            runner, args.seconds, out_dir / "spans.json")
        if not repeatable:
            correct = False
            print("bench: work counts differ between traced passes", file=sys.stderr)
        criteria = {n: fn.__name__ for n, fn in kernel_lab.acceptance.CRITERIA}
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "fail_ratio":
                value = runner.unverified / runner.attempted
            elif name == "trace_overhead_s":
                value = statistics.median(traced_s) - statistics.median(untraced_s)
            elif unit == "s":
                value = statistics.median(
                    metric_value(name, summary, counts, criteria) for summary in summaries)
            else:
                value = metric_value(name, summaries[0], counts, criteria)
            metrics[name] = (value, unit)
        details["samples"] = {"traced_run_s": stats(traced_s),
                              "untraced_run_s": stats(untraced_s)}
        details["spans"] = summaries[0]

    if runner.wrong:
        correct = False
    details["ledger"] = runner.ledger
    details["metrics"] = {name: value for name, (value, _) in metrics.items()}
    (out_dir / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    for entry in runner.ledger:
        if entry["pass"] == 0:
            print(f"bench: {entry['status']} {entry['call']} {entry['domain']} "
                  f"a={entry['a']} x={entry['point']}: {entry['error']}"
                  + ("" if entry["known"] else " [not a known refusal]"), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
