"""Run the blowup benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the library is imported from its src/.
Each run starts fresh worker processes (perfbench/worker.py), one at a
time, single-threaded.

--trace 0 measures the end-to-end metrics: ten set-up-only workers (five
before and five after the measuring worker) and the measuring worker give
eleven set-up times (setup_s is their median), and the measuring worker runs
the head and enough whole repeats of the workload's pattern to take S
seconds at the reference commit (see workloads.Workload.ops), so the ops a
run makes depend only on the seed, and how many of them fail not even on
that.  Every time is divided by the
host's slowness at the time: the time of a fixed pure-Python calibration
loop, sampled every tenth of a second, over its time at the reference speed
(see worker.HostSampler); a set-up time by the slowness sampled while it
ran.  An op stopped by its budget is charged its wall time, unscaled.
The unscaled figures are printed next to the scaled ones.

--trace 1 runs the same ops with every layer's entry points
wrapped (perfbench/layertrace.py) and reports the per-layer metrics; a
second, untraced worker then repeats the first sixth of those ops, which
gives the tracing overhead and checks that tracing changed no output.
"all" runs every workload both ways.

The last line of output is one JSON object: correct, attempted, failed and
metrics (for "all", one such object per workload).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("binomial-resolve", "bmap-lift", "cli-roundtrip")
# One worker never outlives its run by more than an op budget (60 s at
# most) plus set-up; this only stops a hung worker.
WORKER_TIMEOUT_S = 170

SETUP_PROBES = 10  # set-up-only workers per end-to-end run

# Record fields, as worker.run_ops writes them.
STRATUM, INDEX, VARIANT, OUTCOME, DETAIL, SECONDS, REF_FAIL, SLOWNESS = \
    range(8)


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed),
           "--t-spawn", repr(t_spawn), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"{workload} worker timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_percentile(latencies):
    """(value, percentile, samples): the highest percentile of the sorted
    latencies with at least ten samples beyond it (the maximum when there
    are fewer than eleven)."""
    xs = sorted(latencies)
    j = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs)


def scaled_s(record) -> float:
    """An op's time at the reference host speed; an op stopped by its
    budget is charged the budget, its wall time."""
    if record[DETAIL] == "budget":
        return record[SECONDS]
    return record[SECONDS] / record[SLOWNESS]


def summarize(records) -> dict:
    oks = [scaled_s(r) * 1000 for r in records if r[OUTCOME] == "ok"]
    raw_oks = [r[SECONDS] * 1000 for r in records if r[OUTCOME] == "ok"]
    causes = Counter(r[DETAIL] for r in records if r[OUTCOME] == "fail")
    known = Counter(r[DETAIL] for r in records
                    if r[OUTCOME] == "fail" and r[REF_FAIL] == r[DETAIL])
    return {
        "attempted": len(records),
        "failed": len(records) - len(oks),
        "ok_ms": oks,
        "op_s": sum(scaled_s(r) for r in records),
        "raw_ok_ms": raw_oks,
        "raw_op_s": sum(r[SECONDS] for r in records),
        "wrong": [r for r in records if r[OUTCOME] == "wrong"],
        "causes": causes,
        "unexpected": causes - known,
        "newly_passing": sum(1 for r in records
                             if r[OUTCOME] == "ok" and r[REF_FAIL]),
    }


def print_summary(name: str, run: dict, s: dict) -> None:
    if run["cut"] is not None:
        print(f"[{name}] RUN CUT by its wall-time cap after {run['cut']} of "
              f"{run['planned']} ops")
    print(f"[{name}] ops attempted {s['attempted']}, failed {s['failed']} "
          f"(fail_frac {s['failed'] / s['attempted']:.4f})")
    for cause, n in sorted(s["causes"].items()):
        note = "" if cause not in s["unexpected"] else \
            f" ({s['unexpected'][cause]} not in the reference ledger)"
        print(f"[{name}]   failed: {cause} x{n}{note}")
    for r in s["wrong"]:
        print(f"[{name}]   WRONG OUTPUT {r[STRATUM]}#{r[INDEX]} "
              f"{r[VARIANT]}: {r[DETAIL]}")
    if s["newly_passing"]:
        print(f"[{name}]   {s['newly_passing']} ops pass that failed at "
              "the reference commit")


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    # Half the set-up-only workers run before the measuring one and half
    # after it, so that a slow spell of the host meets few of them.
    probes = [spawn(name, seed, "--setup-only")
              for _ in range(SETUP_PROBES // 2)]
    run = spawn(name, seed, "--seconds", str(seconds))
    probes += [run] + [spawn(name, seed, "--setup-only")
                       for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    raw_setups = [p["setup_s"] for p in probes]
    setups = [p["setup_s"] / p["setup_slowness"] for p in probes]
    s = summarize(run["records"])
    print_summary(name, run, s)
    if not s["ok_ms"]:
        raise WorkerFailed(f"{name}: no op succeeded")
    tail, pct, n = tail_percentile(s["ok_ms"])
    raw_tail = tail_percentile(s["raw_ok_ms"])[0]
    slow = run["slowness"]
    print(f"[{name}] host slowness {slow:.4f} (median over the run); "
          f"op_tail_ms is p{pct:.1f} of {n} successful ops")
    print(f"[{name}] set-up times {[round(x, 4) for x in setups]} s")
    print(f"[{name}] unscaled: setup_s {statistics.median(raw_setups):.4f}, "
          f"ops_per_s "
          f"{len(s['raw_ok_ms']) / s['raw_op_s']:.4f}, op_p50_ms "
          f"{statistics.median(s['raw_ok_ms']):.3f}, op_tail_ms "
          f"{raw_tail:.3f}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(s["ok_ms"]) / s["op_s"], "1/s"),
        "op_p50_ms": (statistics.median(s["ok_ms"]), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ok_frac": (len(s["ok_ms"]) / s["attempted"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return result(name, s, not s["wrong"], metrics)


def per_layer(name: str, seed: int, seconds: float) -> dict:
    sys.path.insert(0, HERE)
    import layertrace
    traced = spawn(name, seed, "--seconds", str(seconds), "--trace")
    records = traced["records"]
    s = summarize(records)
    print_summary(name, traced, s)
    # Repeat, untraced, the first ops up to a sixth of the run's time in
    # successful ops; the overhead is taken over the ops that succeeded in
    # both (an op stopped by its budget takes the budget either way).
    k, spent = 0, 0.0
    while k < len(records) and spent < seconds / 6:
        if records[k][OUTCOME] == "ok":
            spent += records[k][SECONDS]
        k += 1
    plain = spawn(name, seed, "--ops", str(k))
    same = ([r[:SECONDS] for r in plain["records"]]
            == [r[:SECONDS] for r in records[:k]])
    if not same:
        print(f"[{name}] TRACED OUTPUTS DIFFER from the untraced run")
    both = [(t, p) for t, p in zip(records, plain["records"])
            if t[OUTCOME] == p[OUTCOME] == "ok"]
    plain_s = sum(scaled_s(p) for _, p in both)
    overhead = sum(scaled_s(t) for t, _ in both) - plain_s
    print(f"[{name}] host slowness {traced['slowness']:.4f} (median over "
          f"the run; self times are divided by it); tracing overhead on "
          f"{len(both)} of the first {k} ops: {overhead:.3f} s over "
          f"{plain_s:.3f} s untraced")
    values = dict(traced["trace"], **{
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_s if plain_s else 0.0})
    metrics = {}
    for key, unit in layertrace.metric_units().items():
        value = values[key]
        if unit == "s" and not key.startswith("trace."):
            value /= traced["slowness"]
        metrics[key] = (value, unit)
    return result(name, s, same and not s["wrong"], metrics)


def result(name: str, s: dict, correct: bool, metrics: dict) -> dict:
    for key, (value, unit) in metrics.items():
        print(f"[{name}] {key} = {value:.6g} {unit}")
    return {"correct": correct, "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "blowup",
                                       "__init__.py")):
        print(f"error: no blowup package under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            run = per_layer if args.trace else end_to_end
            print(json.dumps(run(args.workload, args.seed, args.seconds)))
            return 0
        out = {}
        for name in WORKLOADS:
            out[name] = {"end_to_end": end_to_end(name, args.seed,
                                                  args.seconds),
                         "per_layer": per_layer(name, args.seed,
                                                args.seconds)}
        print(json.dumps(out))
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
