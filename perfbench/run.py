"""Seeded end-to-end benchmark of ``ordist jdc`` and ``ordist check``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload jdc_exact --seed 1 --seconds 30 --trace 0

The workload's systems are generated from the seed and written as files;
``ordist.cli.main(argv)`` is then called in-process, once per system, in a
closed loop with one client (a CLI user waits for each verdict).  Every
call is timed, and its output is checked against the verdict the system
was built with, outside the timed region.

Times are scaled to reference speed (see ``timed``), and a run measures
``--seconds`` of scaled call time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced call on each system, prints the per-layer metrics
from the traced calls and reports the tracing overhead as the mean traced
minus untraced time of a call.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import Patch, Tracer, per_layer
from systems import write_system
from workloads import WORKLOADS, Checker

ROOT = Path(__file__).resolve().parent.parent
#: set-up is repeated this many times; setup_s is the median
SETUP_REPEATS = 3
#: an untraced run makes at least this many calls, so the tail percentile exists
MIN_CALLS = 11
TAIL_MARGIN = 10
#: reference speed is the host speed at which probe() takes this long, about
#: that of a lightly loaded 2-vCPU x86-64 VM under CPython 3.11
PROBE_REFERENCE_S = 0.4e-3
SAMPLE_EVERY_S = 0.05
#: a run stops after this many times --seconds of wall time, however slow
#: the host is
WALL_LIMIT = 1.6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - TAIL_MARGIN) / n, ordered[n - TAIL_MARGIN - 1]


def probe() -> float:
    """Seconds for a fixed slice of Fraction arithmetic, the kind of work
    ordist does: the host's speed at this moment."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k)
    return time.perf_counter() - start


class _Sampler:
    """SIGALRM handler that probes the host's speed during a call and
    keeps the time it spends, so the call's own time can exclude it."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start


def timed(fn, *args):
    """Run fn(*args) and return (result, wall seconds, scaled seconds).

    Other tenants of a shared host slow a single thread by up to twice,
    for stretches of seconds to minutes, so whole runs on the same inputs
    differ by a quarter in wall time.  The host's speed is probed just
    before and after the call and every SAMPLE_EVERY_S during it; the
    scaled time is the call's wall time (probes excluded) times
    PROBE_REFERENCE_S over the mean probe time: its time at reference speed.
    """
    sampler = _Sampler()
    sampler.probes.append(probe())
    previous = signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - sampler.spent
        signal.signal(signal.SIGALRM, previous)
    sampler.probes.append(probe())
    return result, wall, wall * PROBE_REFERENCE_S / statistics.mean(sampler.probes)


def invoke(main, argv) -> tuple[int | None, str, str]:
    """One CLI call: exit code (None on exception), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed invocation, not a crashed run
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def set_up(make, seed: int, workdir: Path):
    """Import ordist once, then repeat generate + write + warm-up call.
    Returns (ordist, cases with their paths, scaled set-up seconds)."""

    def load():
        import ordist
        import ordist.cli

        return ordist

    def prepare():
        cases = make(random.Random(seed))
        paths = []
        for case in cases:
            path = workdir / f"{case.system.name}.json"
            if str(path) not in paths:
                write_system(ordist, case.system, path)
            paths.append(str(path))
        invoke(ordist.cli.main, cases[0].argv(paths[0]))
        return list(zip(cases, paths))

    ordist, _, import_s = timed(load)
    reps = [timed(prepare) for _ in range(SETUP_REPEATS)]
    return ordist, reps[-1][0], import_s + statistics.median(r[2] for r in reps)


class Calls:
    """Wall and scaled seconds of a series of CLI calls."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def call(self, main, argv):
        result, wall, scaled = timed(invoke, main, argv)
        self.wall.append(wall)
        self.scaled.append(scaled)
        return result


def measure(ordist, cases, seconds: float, trace: bool):
    checker = Checker(ordist)
    main = ordist.cli.main
    tracer = Tracer()
    patch = Patch(ordist, tracer)
    untraced, traced, failures = Calls(), Calls(), []
    wall_end = time.perf_counter() + WALL_LIMIT * seconds
    k = 0
    while (
        sum(untraced.scaled) + sum(traced.scaled) < seconds
        and time.perf_counter() < wall_end
    ) or (not trace and len(untraced.scaled) < MIN_CALLS):
        case, path = cases[k % len(cases)]
        k += 1
        argv = case.argv(path)
        code, out, err = untraced.call(main, argv)
        reason = checker.check(case, path, code, out)
        if reason:
            failures.append(f"{case.system.name}: {reason} {err.strip()}")
        if not trace:
            continue
        tracer.op += 1
        with patch:
            idx = tracer.open("cli.main")
            code, out, err = traced.call(main, argv)
            tracer.close(idx)
        reason = checker.check(case, path, code, out)
        if reason:
            failures.append(f"{case.system.name} (traced): {reason} {err.strip()}")
    return untraced, traced, failures, tracer, patch


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ordist" / "__init__.py").is_file():
        print(f"perfbench: no ordist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ordist, cases, setup_s = set_up(WORKLOADS[args.workload], args.seed, workdir)
        untraced, traced, failures, tracer, patch = measure(
            ordist, cases, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}")
    samples = untraced.scaled
    n = len(samples)
    if args.trace:
        overhead = (sum(traced.scaled) - sum(samples)) / n
        metrics = per_layer(tracer, n, overhead, patch.absent())
        for name in sorted(patch.absent()):
            print(f"absent: {name} (a wrapped attribute no longer exists)")
    else:
        pct, tail_s = tail(samples)
        completed = n - len(failures)
        metrics = {
            "systems_per_s": {"value": completed / sum(samples), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(samples), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(
            f"{args.workload}: {n} calls; latency_p50_s over {n} samples; "
            f"latency_tail_s at p{pct:.1f} over {n} samples; "
            f"failed_frac {(n - completed) / n:.4f}; unscaled wall: "
            f"p50 {statistics.median(untraced.wall):.4f} s, "
            f"{completed / sum(untraced.wall):.4f} calls/s"
        )
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": n + len(traced.scaled),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
