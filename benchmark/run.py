#!/usr/bin/env python3
"""Benchmark for sbfe: one workload per process, closed loop, one caller.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: eval-oracle, eval-adg, online, verify (see README.md).  The
inputs are built from --seed during set-up.  Whole rounds of the same
operations run until --seconds of operations have been timed, and at least
three rounds; each operation's time is its median over the rounds.  Every
output is checked after its round, outside the timed region.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run also wraps each sbfe layer's public functions and reports
per-layer self times and counts from one traced round.

Times are calibrated (class Clock): a fixed reference kernel runs every
50 ms, and each stretch of program time between two kernel runs is scaled by
REFERENCE_S over their mean time.  On a shared host whose speed swings by
half within seconds this removes most of the swing from the timings; the raw
seconds are kept in runs.jsonl.

Results are appended to benchmark/results/runs.jsonl; a traced run also
writes its spans to benchmark/results/spans-WORKLOAD-sSEED.csv.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 9
MIN_ROUNDS = 3  # each operation's time is its median over at least three rounds
# About the reference kernel's time on the reference machine in its fast
# state (README.md, "Calibrated time").  A calibrated time is a measured time
# times REFERENCE_S over the kernel's time measured around it.
REFERENCE_S = 0.002
SEGMENT_S = 0.05  # seconds between two runs of the kernel

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "policy_cost": "cost",
}
LAYER_TIMES = (
    "core.optimum", "core.expected_cost", "core.certificate_table",
    "utility.fn", "utility.certificate",
    "policies.greedy", "policies.adg", "policies.baseline",
    "problems.threshold", "problems.cdnf", "problems.simultaneous",
    "problems.ranking", "problems.knapsack",
    "verify.axioms", "verify.goal_certificate", "verify.dual_feasibility",
    "verify.observed_alpha", "verify.ratio_vs_opt",
    "instances.generate", "instances.load",
    "cli.eval", "cli.verify",
)
LAYER_CALLS = ("core.optimum", "core.expected_cost", "utility.fn", "utility.certificate")
LAYER_COUNTS = (
    "core.optimum_states", "policies.greedy_steps", "policies.adg_steps",
    "policies.baseline_steps", "problems.tests_bought",
)


def import_sbfe():
    """Import sbfe from this checkout's src/; None when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "sbfe", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sbfe.cli
    import sbfe.core
    import sbfe.instances
    import sbfe.policies
    import sbfe.problems
    import sbfe.utility
    import sbfe.verify

    if os.path.dirname(os.path.abspath(sbfe.__file__)) != os.path.join(SRC, "sbfe"):
        return None
    return types.SimpleNamespace(
        cli=sbfe.cli, core=sbfe.core, instances=sbfe.instances, policies=sbfe.policies,
        problems=sbfe.problems, utility=sbfe.utility, verify=sbfe.verify,
    )


class _Item:
    __slots__ = ("a", "b", "pair")

    def __init__(self, a: float, b: int):
        self.a = a
        self.b = b
        self.pair = [a, b]

    def gain(self, x: int) -> float:
        return (self.a * x + self.b) / (1.0 + x)


def _kernel() -> float:
    """Fixed pure-Python work in the mix sbfe's oracles and policies spend
    their time on: dict look-ups and stores on tuple keys, float arithmetic,
    object construction, method calls and arg-max scans."""
    table = {}
    for i in range(3000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    acc = 0.0
    for _ in range(2):
        items = [_Item(i * 0.1, i % 5) for i in range(200)]
        for r in range(12):
            best, best_gain = None, -1.0
            for item in items:
                g = item.gain(r + 1)
                if g > best_gain:
                    best, best_gain = item, g
            acc += sum(best.pair)
    return acc


def kernel_seconds() -> float:
    """One timed run of the reference kernel, with the collector off so that
    the program's heap cannot slow the kernel down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel runs of ``before`` and ``after``
    seconds, in calibrated seconds."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class Clock:
    """Stopwatch in calibrated seconds.

    While open it runs the reference kernel when it opens, when it closes
    and every SEGMENT_S seconds from a SIGALRM timer, so that an operation
    of a second is calibrated piece by piece.  Program time between two
    kernel runs counts REFERENCE_S over their mean time per second; the
    kernel runs themselves count for nothing, so they never enter an
    operation's time.  ``skip``, when given, is told the length of every
    kernel run the timer makes (the tracer leaves it out of open spans).
    """

    def __init__(self, skip=None):
        self.skip = skip
        self.samples = []  # (start, end, kernel seconds) of each kernel run

    def __enter__(self):
        self.samples = [self._sample()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self._sample())
        pairs = list(zip(self.samples, self.samples[1:]))
        self._gap_start = [a[1] for a, _ in pairs]
        self._gap_end = [b[0] for _, b in pairs]
        self._rate = [calibrated(1.0, a[2], b[2]) for a, b in pairs]

    def _tick(self, signum, frame):
        sample = self._sample()
        self.samples.append(sample)
        if self.skip is not None:
            self.skip(sample[1] - sample[0])

    @staticmethod
    def _sample():
        start = perf_counter()
        kernel = kernel_seconds()
        return start, perf_counter(), kernel

    def seconds(self, start: float, end: float) -> tuple:
        """(raw, calibrated) seconds of program time in [start, end]."""
        raw = cal = 0.0
        j = max(bisect.bisect_right(self._gap_start, start) - 1, 0)
        while j < len(self._gap_start) and self._gap_start[j] < end:
            piece = min(end, self._gap_end[j]) - max(start, self._gap_start[j])
            if piece > 0:
                raw += piece
                cal += piece * self._rate[j]
            j += 1
        return raw, cal


def import_seconds() -> tuple:
    """Median time to import sbfe in a fresh interpreter, over
    SETUP_REPEATS of them: (calibrated, raw)."""
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); t = time.perf_counter(); "
            "import sbfe.cli; print(time.perf_counter() - t)")
    cal, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        after = kernel_seconds()
        raw.append(float(done.stdout))
        cal.append(calibrated(raw[-1], before, after))
    return statistics.median(cal), statistics.median(raw)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_round(ops, slot_times: list, collect_each: bool, tracer=None):
    """Run one round; appends each operation's calibrated time to its slot in
    ``slot_times`` and returns (outputs, failures, raw seconds, calibrated
    seconds), the last two summed over the round's operations.  In a traced
    round the tracer leaves the kernel runs out of its spans."""
    outputs = []
    timed = []  # (slot, start, end) of each operation that returned
    failed = 0
    with Clock(skip=tracer.skip if tracer else None) as clock:
        for k, (label, call) in enumerate(ops):
            if collect_each:
                gc.collect()  # every operation starts from a collected heap
            if tracer is not None:
                tracer.request = k
            t0 = perf_counter()
            try:
                out = call()
            except Exception as exc:  # counted as a failed operation
                print(f"operation {label} failed: {exc!r}", file=sys.stderr)
                out = None
                failed += 1
            else:
                timed.append((k, t0, perf_counter()))
            outputs.append(out)
    raw_total = cal_total = 0.0
    for k, t0, t1 in timed:
        raw, cal = clock.seconds(t0, t1)
        slot_times[k].append(cal)
        raw_total += raw
        cal_total += cal
    return outputs, failed, raw_total, cal_total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sbfe = import_sbfe()
    if sbfe is None:
        print(f"error: no sbfe package under {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](sbfe, args.seed, workdir)
        extra = {}  # kept in runs.jsonl only
        import_s, import_raw = import_seconds()
        setup_cal, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            with Clock() as clock:
                t0 = perf_counter()
                workload.build()
                workload.warm_up()
                t1 = perf_counter()
            raw, cal = clock.seconds(t0, t1)
            setup_raw.append(raw)
            setup_cal.append(cal)
        extra["raw_setup_s"] = import_raw + statistics.median(setup_raw)

        # untraced rounds: the end-to-end numbers
        ops = workload.round_ops()
        labels = [label for label, _ in ops]
        slot_times = [[] for _ in ops]
        rounds = attempted = failed = 0
        costs = set()
        correct = True
        measured = 0.0
        while rounds < MIN_ROUNDS or measured < args.seconds:
            outputs, round_failed, raw_s, _ = run_round(ops, slot_times, workload.collect_each)
            rounds += 1
            attempted += len(ops)
            failed += round_failed
            measured += raw_s
            extra.setdefault("raw_round_s", []).append(raw_s)
            if round_failed:
                correct = False  # no operation of these workloads may fail
                continue
            try:
                costs.add(workload.check_round(outputs))
            except checks.CheckError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
        if len(costs) > 1:
            print(f"rounds disagree on the policy cost: {sorted(costs)}", file=sys.stderr)
            correct = False

        # each operation at its median over the rounds
        slot_medians = [statistics.median(ts) for ts in slot_times if ts]
        wall_s = sum(slot_medians)
        if args.trace == 0:
            metrics = {
                "setup_s": import_s + statistics.median(setup_cal),
                "wall_s": wall_s,
                "op_p50_ms": statistics.median(slot_medians) * 1e3,
                "op_p99_ms": percentile(slot_medians, 99) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "policy_cost": costs.pop() if len(costs) == 1 else float("nan"),
            }
            units = END_TO_END_UNITS
        else:
            tracer = tracing.Tracer()
            tracing.install(tracer, sbfe)
            try:
                tracer.request = -1
                workload.build()
                ops = workload.round_ops()
                if args.workload.startswith("eval"):
                    ops = [(label, tracer.wrap("cli.eval", call)) for label, call in ops]
                elif args.workload == "verify":
                    ops = [(label, tracer.wrap("cli.verify", call)) for label, call in ops]
                outputs, round_failed, traced_raw, traced_s = run_round(
                    ops, [[] for _ in ops], workload.collect_each, tracer)
            finally:
                tracer.restore()
            attempted += len(ops)
            failed += round_failed
            if round_failed:
                correct = False
            else:
                try:
                    workload.check_round(outputs)
                except checks.CheckError as exc:
                    print(f"check failed in the traced round: {exc}", file=sys.stderr)
                    correct = False
            # layer self times in the calibrated seconds of the traced round
            scale = traced_s / traced_raw if traced_raw else 1.0
            metrics = {f"{name}_s": tracer.self_seconds(name) * scale for name in LAYER_TIMES}
            metrics.update({f"{name}_calls": tracer.call_count(name) for name in LAYER_CALLS})
            metrics.update({name: tracer.counts.get(name, 0) for name in LAYER_COUNTS})
            metrics["trace.overhead_s"] = traced_s - wall_s
            units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
            tracer.write_spans(os.path.join(RESULTS, f"spans-{args.workload}-s{args.seed}.csv"))
            extra["inclusive_s"] = {k: v * scale for k, v in tracer.inclusive().items()}

        with open(os.path.join(RESULTS, f"ops-{args.workload}-s{args.seed}-t{args.trace}.tsv"),
                  "w", encoding="utf-8") as fh:
            for label, ts in zip(labels, slot_times):
                fh.write(label + "".join(f"\t{dt * 1e3:.3f}" for dt in ts) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(RESULTS, "runs.jsonl"), "a", encoding="utf-8") as fh:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "rounds": rounds, "time": time.time(), **extra}
        fh.write(json.dumps({**record, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
