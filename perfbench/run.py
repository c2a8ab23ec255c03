"""Seeded closed-loop benchmark of twinefold.

Run from the root of a source checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload fusion --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One client in one thread runs rounds of operations (see workloads.py) until
``--seconds`` have been measured, always finishing the round it started.
Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
measures the rounds untraced, then sets up again and repeats the same rounds
(same seed, same inputs) with tracing on, and reports the per-layer metrics
and the tracing overhead.  Timings are calibrated against the host's speed
(see ``Clock``); the raw ones are printed on a ``#`` line.  Results and spans
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS have
# been spent on it (at most MAX_SETUPS times), and the median is reported;
# short set-ups are the noisiest
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
MAX_SETUPS = 20
IMPORT_REPEATS = 7

# Calibration.  The machine the benchmark was built on is a shared virtual
# machine whose speed changes by up to 1.7x for seconds to minutes at a time;
# process CPU time equals wall time throughout, so the guest cannot see the
# slowdown directly.  A fixed loop of stdlib Fraction arithmetic (no twinefold
# code, about 1 ms) is timed after every operation and set-up and, from a
# SIGALRM handler, every TICK_S seconds inside them; each timing is reported
# as ``raw * REFERENCE_S / reference``, with ``raw`` excluding the handler's
# time and ``reference`` the mean of the readings from the one just before to
# the one just after it: the time the work would take on a host where that
# loop takes REFERENCE_S.  Interleaved this way the loop tracked operation
# latency to within ~5% while raw latency moved by 1.7x (NOTES.md).  Raw
# figures are printed on a ``#`` line and kept in out/.
REFERENCE_S = 1e-3
TICK_S = 0.1
REFERENCE_VALUES = [Fraction(i, 401 + i) for i in range(1, 200)]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("fusion", "characters", "geometry", "orthogonality")
IMPORT_TIMER = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import twinefold, twinefold.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import run; "
    "print(t, run.median_reference())"
)


def reference_seconds():
    """Time of one pass of the calibration loop."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for a, b in zip(REFERENCE_VALUES, REFERENCE_VALUES[1:]):
        total += a * b
    return time.perf_counter() - t0


def median_reference():
    return statistics.median(reference_seconds() for _ in range(3))


def calibrated(raw, reference):
    return raw * REFERENCE_S / reference


class Clock:
    """Times calls and calibrates them by the loop read around and inside them."""

    def __enter__(self):
        self.readings = []
        self.handler_s = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.read()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(reference_seconds())
        self.handler_s += time.perf_counter() - t0

    def read(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self.readings.append(reference_seconds())
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def call(self, fn):
        """Run ``fn``; return (result, exception, raw s, calibrated s)."""
        first, handler_s = len(self.readings) - 1, self.handler_s
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            error = exc
        raw = time.perf_counter() - t0 - (self.handler_s - handler_s)
        self.read()
        return result, error, raw, calibrated(raw, statistics.fmean(self.readings[first:]))


def import_library():
    if not os.path.isfile(os.path.join(SRC, "twinefold", "__init__.py")):
        sys.exit("perfbench: src/twinefold not found; run from the repository root")
    sys.path.insert(0, SRC)


def import_seconds():
    """Median time to import the library in a fresh interpreter, calibrated
    by the loop timed in that interpreter just after the import; and raw."""
    here = os.path.dirname(os.path.abspath(__file__))
    cal, raw = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, SRC, here],
            capture_output=True, text=True, check=True,
        ).stdout
        seconds, reference = map(float, out.split())
        raw.append(seconds)
        cal.append(calibrated(seconds, reference))
    return statistics.median(cal), statistics.median(raw)


def measure(round_fn, state, seed, seconds=None, rounds=None, call=None):
    """Run whole rounds until ``seconds`` of raw op time, or exactly ``rounds``.

    What set-up built is frozen out of the garbage collector's view and the
    previous operation's garbage is collected before each operation starts,
    outside its timing, so an operation does not pay for another's garbage.
    """
    rng = random.Random(seed)
    latencies, failures, labels, raw = [], [], [], []
    busy = raw_busy = 0.0
    done = 0
    gc.collect()
    gc.freeze()
    with Clock() as clock:
        while (done < rounds) if rounds is not None else (raw_busy < seconds):
            for label, op in round_fn(state, rng):
                gc.collect()
                _, error, elapsed, cal = clock.call(
                    (lambda label=label, op=op: call(label, op)) if call else op
                )
                raw_busy += elapsed
                if error is None:
                    latencies.append(cal)
                    labels.append(label)
                    raw.append(elapsed)
                else:
                    failures.append(cal)
                    print(f"FAIL {label}: {type(error).__name__}: {error}", file=sys.stderr)
                    traceback.print_exception(error, file=sys.stderr)
            busy = sum(latencies) + sum(failures)
            done += 1
    gc.unfreeze()
    return latencies, failures, busy, done, labels, raw, clock.readings


def summary(latencies, failures, busy):
    """Throughput counts completed ops; percentiles fall back to failed ops
    only when none completed."""
    sample = latencies or failures
    p90 = statistics.quantiles(sample, n=10)[8] if len(sample) > 1 else sample[0]
    return len(latencies) + len(failures), {
        "ops_per_s": len(latencies) / busy,
        "op_s_p50": statistics.median(sample),
        "op_s_p90": p90,
    }


def timed_setups(setup):
    """Calibrated and raw time of each set-up."""
    times, raw, state = [], [], None
    with Clock() as clock:
        while len(raw) < SETUP_REPEATS or (sum(raw) < SETUP_SECONDS and len(raw) < MAX_SETUPS):
            state = None  # release the previous set-up before timing the next
            gc.collect()
            state, error, elapsed, cal = clock.call(setup)
            if error is not None:
                raise error
            raw.append(elapsed)
            times.append(cal)
    return state, times, raw


def report(metrics, units, attempted, failed, extra_lines=()):
    for line in extra_lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def redrawn_line():
    import workloads

    redrawn = workloads.NEAR_WALL_REDRAWN
    if not redrawn:
        return []
    counts = ", ".join(f"{key} {n}" for key, n in sorted(redrawn.items()))
    return [f"# near-wall points redrawn (jantzen_eval defect, see NOTES.md): {counts}"]


def run_untraced(name, setup, round_fn, seed, seconds):
    import_s, import_raw = import_seconds()
    state, setups, setups_raw = timed_setups(setup)
    latencies, failures, busy, rounds, labels, raw, references = measure(
        round_fn, state, seed, seconds=seconds
    )
    attempted, metrics = summary(latencies, failures, busy)
    _, raw_metrics = summary(raw, [], sum(raw)) if raw else (0, {})
    failed = len(failures)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        **metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_metrics["setup_s"] = import_raw + statistics.median(setups_raw)
    lines = [
        f"# workload {name} seed {seed}: {rounds} rounds, {len(latencies)} ops "
        f"timed over {busy:.3f} calibrated s; percentiles over {len(latencies)} samples",
        f"# set-up: median import {import_s:.4f} s over {IMPORT_REPEATS} interpreters "
        f"+ median {statistics.median(setups):.4f} s of {len(setups)} set-ups",
        f"# raw (uncalibrated): "
        + ", ".join(f"{k} {v:.6g}" for k, v in sorted(raw_metrics.items()))
        + f"; calibration loop median {1e3 * statistics.median(references):.4f} ms "
        f"(range {1e3 * min(references):.4f}-{1e3 * max(references):.4f}, "
        f"{REFERENCE_S * 1e3:g} ms nominal)",
        *redrawn_line(),
    ]
    with open(os.path.join(OUT, f"{name}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": rounds,
                   "samples": len(latencies), "failed": failed,
                   "setup_runs_s": setups, "metrics": metrics,
                   "raw_setup_runs_s": setups_raw, "raw_metrics": raw_metrics,
                   "ops": sorted(zip(latencies, labels, raw))}, fh, indent=1)
    report(metrics, END_TO_END, attempted, failed, lines)


def run_traced(name, setup, round_fn, seed, seconds):
    import tracing

    state = setup()
    plain, failed_plain, busy_plain, rounds, *_ = measure(round_fn, state, seed, seconds=seconds)
    state = None

    tracer = tracing.Tracer()
    tracer.install()
    state = tracer.root("setup", setup)
    traced, failed_traced, busy, *_ = measure(
        round_fn, state, seed, rounds=rounds, call=lambda label, op: tracer.root("op", op)
    )
    metrics = tracer.metrics()
    metrics["trace.ops_per_s"] = len(traced) / busy
    metrics["trace.untraced_ops_per_s"] = len(plain) / busy_plain
    metrics["trace.overhead_ratio"] = busy / busy_plain - 1
    lines = [
        f"# workload {name} seed {seed}: {rounds} rounds, {len(traced)} ops traced, "
        f"{len(tracer.spans)} spans; tracing overhead "
        f"{100 * metrics['trace.overhead_ratio']:.1f}% "
        f"({metrics['trace.ops_per_s']:.4g} vs {metrics['trace.untraced_ops_per_s']:.4g} ops/s)",
        *redrawn_line(),
    ]
    tracer.write(
        os.path.join(OUT, f"{name}-seed{seed}-trace.json"),
        {"workload": name, "seed": seed, "rounds": rounds, "metrics": metrics},
    )
    failed = len(failed_plain) + len(failed_traced)
    report(metrics, tracing.UNITS, len(plain) + len(traced) + failed, failed, lines)


def run_all(args):
    """Each workload in its own process, so set-up and memory are its own."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_library()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    setup, round_fn = workloads.WORKLOADS[args.workload]
    if args.trace:
        run_traced(args.workload, setup, round_fn, args.seed, args.seconds)
    else:
        run_untraced(args.workload, setup, round_fn, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
