"""symrees benchmark: one workload per fresh single-threaded process.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
loop is closed, with one item in flight: each item starts when the previous
one has finished and its outputs have been checked against their references.
A run sets up, then repeats whole passes over the workload's items until
another pass would end after `--seconds`, with at least three passes.

End-to-end figures (`--trace 0`):

    setup_s         median over fresh processes, spawned between items during
                    the run, of the time each spends from its start to the
                    first item being ready: interpreter start, import,
                    fixture parsing, parameter sampling, pairs
    pass_s          median over the passes of the time of one full pass (its
                    quartiles and the pass count are printed beside it)
    slowest_item_s  median over the passes of the slowest item in each pass
    peak_rss_mb     peak resident memory (ru_maxrss) of the measuring process
    failed_ratio    printed only: items that raised or missed a reference over
                    items attempted; the JSON carries it as failed / attempted

With `--trace 1` the process alternates untraced and traced passes and reports
the per-layer figures of the traced ones (set-up spans included), plus the
ratio of traced to untraced pass time; the spans go to `perfbench/out/`.

Times are reference seconds: CPU seconds (user + system) of the process and
of any child it waits for, scaled by the speed of the host at that moment.
The program is single-threaded and does no I/O, so on an idle machine its CPU
time is the wall time a user waits; on a shared host CPU time leaves out the
time the process waits for a CPU, which other processes' load varies (a third
CPU-bound process on two vCPUs stretches an item's wall time 1.5x and leaves
its CPU time within a few percent).  A host whose cores are shared below the
operating system slows CPU time too, by up to 2x for a minute or more at a
time, so between items, about once a second, the run times `calibrate`, a
fixed stdlib-only computation shaped like the program's (sparse polynomials
over Fractions), and scales each item's CPU time by CALIBRATION_S over the
mean of the calibrations just before and just after it (CALIBRATION_WINDOW on
each side).  A reference second is thus a CPU second on a host where
`calibrate` takes CALIBRATION_S.  The raw CPU and wall figures and the
calibrations are printed beside the metrics.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("catalog", "curves", "torsion")
SETUP_SAMPLES = 11
MIN_PASSES = 3
# About the CPU seconds `calibrate` took on the host of BASELINE.md; the wall
# seconds between calibrations.
CALIBRATION_S = 0.08
CALIBRATE_EVERY_S = 1.0
# An interval is scaled by this many calibrations on each side of it: one
# calibration alone varies by about 15%.
CALIBRATION_WINDOW = 2
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("slowest_item_s", "s"),
              ("peak_rss_mb", "MB"))


def _import_program():
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    if not (SRC / "symrees" / "__init__.py").is_file():
        raise SystemExit(f"error: no symrees sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symrees
    if Path(symrees.__file__).resolve().parent != SRC / "symrees":
        raise SystemExit(f"error: imported symrees from {symrees.__file__}")


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed computation that uses only the standard library.

    Products of sparse polynomials with Fraction coefficients, the kind of
    work the program spends its time on.  The collector is off meanwhile, so
    that collector settings made by the program cannot change the figure.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = cpu_seconds()
        p = {(i, j, 5 - i - j): Fraction(7 * i + j + 1, j + 2)
             for i in range(6) for j in range(6 - i)}
        q = dict(p)
        for _ in range(20):
            r: dict = {}
            for m1, c1 in p.items():
                for m2, c2 in q.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    r[m] = r.get(m, 0) + c1 * c2
            q = {(a % 6, b % 6, c % 6): v / 97 for (a, b, c), v in r.items()}
        return cpu_seconds() - c0
    finally:
        if was_enabled:
            gc.enable()


class Calibration:
    """Calibrations taken over a run, and the scale they give each interval."""

    def __init__(self):
        self.samples = [calibrate()]
        self.last = perf_counter()

    def take(self) -> None:
        self.samples.append(calibrate())
        self.last = perf_counter()

    def take_when_due(self) -> None:
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.take()

    def mark(self) -> int:
        """Index of the next calibration; pass it to `scale` later."""
        return len(self.samples)

    def finish(self) -> None:
        """Take the calibrations that follow the last interval."""
        for _ in range(CALIBRATION_WINDOW):
            self.take()

    def scale(self, mark: int) -> float:
        """Reference seconds per CPU second between calibrations mark-1 and mark."""
        around = self.samples[max(0, mark - CALIBRATION_WINDOW):mark + CALIBRATION_WINDOW]
        return CALIBRATION_S * len(around) / sum(around)


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4, method="inclusive")
    return f"q1 {q[0]:.4f} q3 {q[2]:.4f}, n={len(values)}"


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Item times and reference mismatches of one pass over the items."""

    def __init__(self):
        self.item_s: list = []      # (item, CPU seconds)
        self.marks: list = []       # calibration mark of each item
        self.wall_s = 0.0           # wall seconds of the items, summed
        self.failed: dict = {}      # item -> list of messages

    @property
    def seconds(self) -> float:
        return sum(s for _, s in self.item_s)

    def scaled(self, calibration: Calibration) -> list:
        """Each item's time in reference seconds."""
        return [s * calibration.scale(m) for (_, s), m in zip(self.item_s, self.marks)]


def run_pass(items, tracer=None, between=None, calibration=None) -> Pass:
    """Run every item once; only `item.run` is timed (and traced).

    `between`, if given, is called between items, outside the timing.
    """
    result = Pass()
    for item in items:
        if between is not None and result.item_s:
            between()
        if tracer is not None:
            tracer.item = item.name
            tracer.recording = True
        if calibration is not None:
            result.marks.append(calibration.mark())
        t0, c0 = perf_counter(), cpu_seconds()
        try:
            out = item.run()
            error = None
        except Exception as exc:  # an item that raises is counted as failed
            error = exc
        seconds = cpu_seconds() - c0
        result.wall_s += perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        result.item_s.append((item.name, seconds))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            result.failed[item.name] = [f"raised {error!r}"]
            continue
        try:
            bad = item.check(out)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            bad = [f"reference check raised {exc!r}"]
        if bad:
            result.failed[item.name] = bad
            for msg in bad:
                print(f"mismatch: {item.name}: {msg}", file=sys.stderr)
    return result


def repeat(seconds: float, min_rounds: int, one_round) -> None:
    """Call one_round() until another round would end after `seconds`."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        one_round()
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(durations) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return


def probe_setup(workload: str, seed: int) -> float:
    """CPU seconds a fresh process spends from its start to its first item being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        words = proc.stdout.readline().split()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or len(words) != 2 or words[0] != "ready":
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    return float(words[1])


def _summary(passes: list) -> tuple:
    attempted = sum(len(p.item_s) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    return attempted, failed


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    import workloads
    items = workloads.build(workload, seed)
    calibration = Calibration()
    # The set-up probes are spread over the run, between items.
    setups = []         # (CPU seconds, calibration mark)

    def probe():
        setups.append((probe_setup(workload, seed), calibration.mark()))
        calibration.take()

    probe()
    due = [perf_counter() + seconds / SETUP_SAMPLES]

    def between():
        calibration.take_when_due()
        if len(setups) < SETUP_SAMPLES and perf_counter() >= due[0]:
            probe()
            due[0] += seconds / SETUP_SAMPLES

    passes = []
    repeat(seconds, MIN_PASSES, lambda: passes.append(
        run_pass(items, between=between, calibration=calibration)))
    while len(setups) < SETUP_SAMPLES:
        probe()
    calibration.finish()

    scaled = [p.scaled(calibration) for p in passes]
    pass_s = [sum(times) for times in scaled]
    slowest_s = [max(times) for times in scaled]
    slowest = [p.item_s[times.index(max(times))][0] for p, times in zip(passes, scaled)]
    setup_s = [s * calibration.scale(m) for s, m in setups]
    cpu_s = [p.seconds for p in passes]
    wall_s = [p.wall_s for p in passes]
    cal = calibration.samples
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = _summary(passes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(pass_s),
        "slowest_item_s": statistics.median(slowest_s),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": (f"median of {len(setups)} fresh processes, {_spread(setup_s)}; "
                    f"CPU {statistics.median(s for s, _ in setups):.4f}"),
        "pass_s": (f"median of {len(passes)} passes of {len(items)} items, {_spread(pass_s)}; "
                   f"CPU {statistics.median(cpu_s):.4f}, {_spread(cpu_s)}; "
                   f"wall {statistics.median(wall_s):.4f}"),
        "slowest_item_s": (f"median of {len(passes)} passes; slowest item "
                           f"{statistics.mode(slowest)}"),
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:<16} {value:12.4f} {units[name]:<3}  {notes[name]}")
    print(f"{'failed_ratio':<16} {failed / attempted:12.4f} {'':<3}  "
          f"{failed} of {attempted} items failed or missed their reference")
    print(f"{'calibration':<16} {statistics.median(cal):12.4f} {'s':<3}  "
          f"CPU seconds of `calibrate`, median of {len(cal)}, {_spread(cal)}; "
          f"reference {CALIBRATION_S}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    import tracer as tracing
    import workloads
    tracer = tracing.Tracer()
    t0 = perf_counter()
    tracer.install()
    tracer.recording = True
    items = workloads.build(workload, seed)
    tracer.recording = False
    tracer.uninstall()

    plain, traced = [], []

    def one_round():
        plain.append(run_pass(items))
        tracer.pass_no = len(traced)
        tracer.install()
        try:
            traced.append(run_pass(items, tracer))
        finally:
            tracer.uninstall()

    repeat(seconds, 1, one_round)

    per_pass = [tracer.layer_metrics([-1, k]) for k in range(len(traced))]
    metrics = tracing.median_metrics(per_pass)
    metrics["trace_overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                       / statistics.median(p.seconds for p in plain))
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.dump(span_file, t0)

    specs = tracing.metric_specs()
    for name, unit, _ in specs:
        print(f"{name:<42} {metrics[name]:14.6g} {unit}")
    attempted, failed = _summary(plain + traced)
    print(f"{len(traced)} traced and {len(plain)} untraced passes; "
          f"{failed} of {attempted} items failed; spans in {span_file}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in specs}}


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every workload's figures."""
    results = {}
    code = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, flush=True)
            code = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
        if not results[workload]["correct"]:
            code = 1
    print(json.dumps({"seed": args.seed, "workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    _import_program()
    if args.probe_setup:
        import workloads
        workloads.build(args.workload, args.seed)
        print(f"ready {cpu_seconds()!r}", flush=True)
        return 0

    print(f"symrees benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
