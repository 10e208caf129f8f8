"""One run of one workload, in a fresh single-threaded process.

Started by run.py; prints one JSON line.  The process caps its own address
space and gives every op a wall-time budget (SIGALRM); an op that exceeds
either, raises, or returns a wrong output counts as failed.  Times are
reported raw, with the host's slowness (see calibrate) for run.py to scale
them by.

    python3 perfbench/worker.py --root . --workload bmap-lift --seed 1
        [--seconds 25 | --ops N] [--trace] [--setup-only] [--t-spawn T]
"""

import argparse
import gc
import itertools
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from math import gcd
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
MEMORY_CAP = 2 << 30  # bytes of address space
# What calibrate() takes at the speed all reported times are scaled to
# (about its median on the 2-vCPU host the benchmark was built on).
CALIBRATION_S = 0.004
# CPU seconds between host-speed samples while ops run, and during set-up
# (which takes a few tenths of a second).
SAMPLE_CPU_S, SETUP_SAMPLE_CPU_S = 0.1, 0.025
# A run's ops are fixed by its seed (see run_ops); this many times --seconds
# of wall time cuts a run short, which only guards the run's time limit if
# the program gets far slower.  A cut run is reported.
WALL_CAP = 3.0


class OpBudgetExceeded(BaseException):
    """Raised by SIGALRM in an op that outlives its budget.  A
    BaseException, so the library's `except Exception` cannot swallow it."""


def _alarm(signum, frame):
    raise OpBudgetExceeded()


class _Rational:
    """A minimal rational number for calibrate(), so the loop does the
    same kind of work as the library's Fraction arithmetic without using
    fractions.Fraction (whose constructor the traced run counts)."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def __sub__(self, o):
        return _Rational(self.n * o.d - o.n * self.d, self.d * o.d)

    def __mul__(self, o):
        return _Rational(self.n * o.n, self.d * o.d)

    def inverse(self):
        return _Rational(self.d, self.n) if self.n > 0 else \
            _Rational(-self.d, -self.n)


_CALIBRATION_MATRIX = ((3, 1, 4, 1, 5, 9), (2, 6, 5, 3, 5, 8),
                       (9, 7, 9, 3, 2, 3), (8, 4, 6, 2, 6, 4),
                       (3, 3, 8, 3, 2, 7))


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work like the
    library's: rational Gaussian elimination of small integer matrices,
    with no library code.  The host's speed drifts by a factor of up to 1.6
    between half-minute windows; timing this every tenth of a second lets a
    run scale its times to one reference speed.  The garbage collector is
    off meanwhile: a collection started by the loop's allocations would
    walk the library's heap, and the loop's time would grow with it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for k in range(28):
            rows = [[_Rational(x + k) for x in r]
                    for r in _CALIBRATION_MATRIX]
            col = 0
            while rows and col < len(_CALIBRATION_MATRIX[0]):
                pivot = next((r for r in rows if r[col].n), None)
                if pivot is None:
                    col += 1
                    continue
                rows.remove(pivot)
                inv = pivot[col].inverse()
                pivot = tuple(x * inv for x in pivot)
                rows = [[a - r[col] * b for a, b in zip(r, pivot)]
                        for r in rows]
                col += 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowness(calibrations) -> float:
    """How much slower than the reference speed the host ran."""
    return statistics.median(calibrations) / CALIBRATION_S


class HostSampler:
    """Runs calibrate() every `period` seconds of the process's CPU time
    (from a SIGVTALRM handler, so also in the middle of long ops), keeping
    (end time, duration) of each run of the loop."""

    def __init__(self, period: float, tracer=None):
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self.sampled_s = 0.0
        self.tracer = tracer

    def sample(self, *_) -> None:
        d = calibrate()
        self.samples.append((time.perf_counter(), d))
        self.sampled_s += d
        if self.tracer is not None:
            self.tracer.exclude(d)

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_VIRTUAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.sample()

    def span(self, t0: float, t1: float) -> Tuple[float, float]:
        """(slowness, seconds of calibration) for the interval [t0, t1]:
        the slowness is the median of the samples taken in it and the two
        last before and two first after it (those there are yet)."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        before = [d for t, d in self.samples if t < t0][-2:]
        after = [d for t, d in self.samples if t > t1][:2]
        near = before + inside + after
        return statistics.median(near) / CALIBRATION_S, sum(inside)


def cause_of(exc: BaseException) -> str:
    """The failure cause: exception type and message, with the
    input-specific tail (element ids, vectors) cut off."""
    if isinstance(exc, OpBudgetExceeded):
        return "budget"
    if isinstance(exc, MemoryError):
        return "memory"
    msg = str(exc).split(" in chart")[0]
    msg = re.split(r"[0-9(\[{:]", msg, maxsplit=1)[0].strip()
    return f"{type(exc).__name__}: {msg}" if msg else type(exc).__name__


def import_library(root: str):
    """Import blowup from the checkout's src/, and from nowhere else."""
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    try:
        import blowup
    except ImportError:
        sys.exit(f"error: no blowup package under {src}")
    if not os.path.abspath(blowup.__file__).startswith(src + os.sep):
        sys.exit(f"error: blowup imported from {blowup.__file__}, "
                 f"not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--ops", type=int,
                    help="run exactly the first OPS ops, and no closing op")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t-spawn", type=float,
                    help="time.monotonic() when the parent started us")
    args = ap.parse_args(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else time.monotonic()

    # Sample the host's speed through set-up too: set-up time is divided
    # by the slowness while it ran.
    setup_host = HostSampler(SETUP_SAMPLE_CPU_S).__enter__()
    import_library(args.root)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    signal.signal(signal.SIGALRM, _alarm)
    import layertrace
    import workloads
    with open(os.path.join(HERE, "reference.json")) as fh:
        catalogue = json.load(fh)["workloads"][args.workload]
    w = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        prepared = workloads.Prepared(w, catalogue, workdir)
        prepared.warm_up()
        t_first = time.monotonic()
        setup = {"setup_s": t_first - t_spawn - setup_host.sampled_s}
        setup_host.__exit__()
        setup["setup_slowness"] = slowness(
            [d for _, d in setup_host.samples])
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        tracer = layertrace.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        result = run_ops(prepared, catalogue, args, tracer)
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup)
    print(json.dumps(result))
    return 0


def run_ops(prepared, catalogue, args, tracer) -> dict:
    """The timed loop: the run's ops (Workload.ops: the head and enough
    whole repeats of the pattern to take args.seconds at the reference
    times), or the first args.ops ops of the stream.  Each op is one
    record: stratum, index, variant, outcome ("ok", "fail" or "wrong"),
    detail (the digest, or the cause), seconds, the reference failure
    cause (None if it passed), and the host's slowness around the op (see
    calibrate)."""
    from workloads import CheckFailed, reference_costs
    w = prepared.w
    records, spans = [], []

    def run_one(stratum, index, variant):
        ref = catalogue[stratum][index]["ref"][variant]
        call = prepared.op(stratum, index, variant)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, w.budget_s)
        try:
            got = call()
            outcome, detail = "ok", got
        except CheckFailed as e:
            outcome, detail = "wrong", str(e)
        except (Exception, OpBudgetExceeded) as e:
            outcome, detail = "fail", cause_of(e)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        spans.append((t0, time.perf_counter()))
        if outcome == "ok" and "digest" in ref and ref["digest"] != got:
            outcome, detail = "wrong", f"digest {got} != {ref['digest']}"
        records.append([stratum, index, variant, outcome, detail,
                        ref.get("fail")])

    costs = reference_costs(w, catalogue)
    if args.ops is None:
        ops = w.ops(args.seed, costs, args.seconds)
    else:
        ops = list(itertools.islice(w.stream(args.seed, costs), args.ops))
    with HostSampler(SAMPLE_CPU_S, tracer) as host:
        wall_cap = time.perf_counter() + WALL_CAP * args.seconds
        for ordinal, op in enumerate(ops):
            if args.ops is None and time.perf_counter() >= wall_cap:
                cut = ordinal
                break
            run_one(*op)
        else:
            cut = None
        rusage = resource.getrusage(resource.RUSAGE_SELF)
        if args.ops is None:
            for stratum in w.last:
                run_one(stratum, 0, w.variant(stratum, 0))
    # Each op's time excludes the calibration loops run inside it.
    for record, (t0, t1) in zip(records, spans):
        slow, calibrating = host.span(t0, t1)
        record[5:5] = [t1 - t0 - calibrating]
        record.append(slow)
    return {"records": records, "planned": len(ops), "cut": cut,
            "peak_rss_mb": rusage.ru_maxrss / 1024,
            "slowness": slowness([d for _, d in host.samples])}


if __name__ == "__main__":
    sys.exit(main())
