"""Draw the benchmark's input catalogue, measure how often each stratum
occurs in the draw, and record the reference outcome of every op on the
catalogue: the output digest, or the failure cause.

Run from the root of a checkout, at the commit whose outputs are the
reference (this rewrites perfbench/reference.json):

    python3 perfbench/make_reference.py

It takes about five minutes.  Every op runs as the benchmark runs it, in
this one process, with the workload's budget and the worker's memory cap.

Inputs are drawn the way the test suite draws them, one stream per
workload, and every draw is sorted into its stratum (see workloads.py).
The share of each stratum among all draws is its natural share, stored
under meta.shares; the workloads' patterns are built from those shares.
"""

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

# Items kept per stratum.  A 25 s run at the reference commit uses fewer of
# the binomial and lift strata, and about all of dim3 and dim4 once; a run
# that outgrows a stratum goes through it again in the same order.
# Strata that occur in the draw but are not listed here (the big cli
# documents) are counted for the shares and not kept.
SIZES = {
    "binomial-resolve": {"n2": 24, "n2-rank2": 8, "n3-rank0": 8,
                         "n3-rank2": 32, "n3-supp2": 48, "n3-supp3": 16},
    "bmap-lift": {"lift2-6": 24, "lift2-8": 32, "lift3": 1,
                  "lift3-large": 1},
    "cli-roundtrip": {"dim3": 280, "dim4": 120, "large": 4},
}
# Draws made at least, so that every share rests on this many draws.
MIN_DRAWS = {"binomial-resolve": 2000, "bmap-lift": 300,
             "cli-roundtrip": 1000}
# The acceptance suite's criterion 5 lifts 100 random rounds; criterion 6
# resolves the sum map once and 50 transversal simple pairs.  These set
# the natural shares of the two kinds of bmap-lift op.
LIFT_ROUNDS, FIBER_PAIRS = 100, 50
PAIRS_KEPT = 64  # split into fiber-ok and fiber-defect once recorded


def fill(name: str, draw: Callable[[], Tuple[str, Dict]]
         ) -> Tuple[Dict[str, List], Dict[str, float]]:
    """Call draw() until every stratum of SIZES[name] is full and at least
    MIN_DRAWS[name] draws are made.  Returns the kept items and every
    stratum's share of the draws."""
    sizes = SIZES[name]
    cat = {s: [] for s in sizes}
    seen: Counter = Counter()
    while (sum(seen.values()) < MIN_DRAWS[name]
           or any(len(cat[s]) < n for s, n in sizes.items())):
        stratum, item = draw()
        seen[stratum] += 1
        if stratum in cat and len(cat[stratum]) < sizes[stratum]:
            cat[stratum].append(item)
    total = sum(seen.values())
    return cat, {s: n / total for s, n in sorted(seen.items())}


def draw_catalogue(workloads):
    """(catalogue, shares) of every workload."""
    cats, shares = {}, {}

    rng = random.Random("binomial-resolve")

    def draw_system():
        pairs = workloads.draw_system_pairs(rng)
        b = workloads.system_from_pairs(pairs)
        return workloads.system_class(b), {"pairs": pairs}

    cat, sh = fill("binomial-resolve", draw_system)
    cat["x1x2=x3"] = [{"pairs": workloads.X1X2_X3}]
    cats["binomial-resolve"], shares["binomial-resolve"] = cat, sh

    # Criterion 5 lifts over [0, inf)^2 twice as often as over [0, inf)^3.
    rng, count = random.Random("bmap-lift"), itertools.count()

    def draw_round():
        n = rng.choice([2, 2, 3])
        seed = f"bmap-lift/lift{n}/{next(count)}"
        return workloads.lift_class(n, random.Random(seed)), \
            {"n": n, "rng": seed}

    cat, sh = fill("bmap-lift", draw_round)
    lift = LIFT_ROUNDS / (LIFT_ROUNDS + 1 + FIBER_PAIRS)
    sh = {s: v * lift for s, v in sh.items()}
    sh["fiber-sum"] = 1 / (LIFT_ROUNDS + 1 + FIBER_PAIRS)
    sh["fiber-ok"] = FIBER_PAIRS / (LIFT_ROUNDS + 1 + FIBER_PAIRS)
    sh["fiber-defect"] = 0.0  # split off fiber-ok once recorded
    rng = random.Random("bmap-lift/fiber")
    cat["fiber-sum"] = [{}]
    cat["fiber-ok"] = [workloads.draw_simple_pair(rng)
                       for _ in range(PAIRS_KEPT)]
    cat["fiber-defect"] = []
    cats["bmap-lift"], shares["bmap-lift"] = cat, sh

    # The monoid tests draw dimension 3 or 4 (test_monoids.py).
    rng = random.Random("cli-roundtrip")

    def draw_doc():
        dim = rng.randint(3, 4)
        m = workloads.draw_positive_monoid(rng, dim)
        doc = workloads.serialization.monoid_to_doc(m)
        item = {"doc": doc, "star": ",".join(map(str, m.interior_point()))}
        return workloads.doc_class(dim, len(doc["generators"])), item

    cats["cli-roundtrip"], shares["cli-roundtrip"] = fill("cli-roundtrip",
                                                          draw_doc)
    return cats, shares


def record(workloads, name, cat):
    """Run every op of the catalogue once; store its outcome in the item."""
    w = workloads.WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    prepared = workloads.Prepared(w, cat, workdir)
    slowest_ok = 0.0
    for stratum in sorted(cat):
        for index, item in enumerate(cat[stratum]):
            variant = w.variant(stratum, index)
            call = prepared.op(stratum, index, variant)
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, w.budget_s)
            try:
                ref = {"digest": call()}
            except (Exception, worker.OpBudgetExceeded) as e:
                ref = {"fail": worker.cause_of(e)}
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
            if "digest" in ref:
                slowest_ok = max(slowest_ok, seconds)
            ref["s"] = round(seconds, 3)
            item["ref"] = {variant: ref}
            print(f"{name} {stratum} {index} {variant} "
                  f"{seconds:.3f}s {ref}", flush=True)
    shutil.rmtree(workdir)
    return {"slowest_ok_s": round(slowest_ok, 3), "budget_s": w.budget_s}


def move_failing(cat, shares, source: str, target: str,
                 slow_s: float) -> None:
    """Move the items of stratum source that failed, or took over slow_s,
    in any reference op to stratum target, and move the same part of the
    source's share with them.  The strata are cost and outcome classes: a
    few cli documents with fewer than LARGE_DOC generators also run over
    (or close to) the budget, and whether a simple pair hits defect (b)
    follows no simple property of the pair.  Only the first item of a last
    stratum runs, so the documents moved to "large" are recorded but not
    run."""
    items = cat[source]
    moved = [item for item in items
             if any("fail" in r or r["s"] > slow_s
                    for r in item["ref"].values())]
    cat[source] = [item for item in items if item not in moved]
    cat[target] += moved
    part = shares[source] * len(moved) / len(items)
    shares[source] -= part
    shares[target] = shares.get(target, 0.0) + part


def dump(reference) -> str:
    """reference.json's text: one catalogue item per line."""
    lines = ["{", f' "meta": {json.dumps(reference["meta"], sort_keys=True)},',
             ' "workloads": {']
    names = sorted(reference["workloads"])
    for i, name in enumerate(names):
        cat = reference["workloads"][name]
        lines.append(f"  {json.dumps(name)}: {{")
        strata = sorted(cat)
        for j, stratum in enumerate(strata):
            items = [json.dumps(item, sort_keys=True) for item in cat[stratum]]
            lines.append(f"   {json.dumps(stratum)}: [")
            lines.append(",\n".join("    " + item for item in items))
            lines.append("   ]" + ("," if j < len(strata) - 1 else ""))
        lines.append("  }" + ("," if i < len(names) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(line for line in lines if line) + "\n"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(
        argv)
    worker.import_library(os.getcwd())
    resource.setrlimit(resource.RLIMIT_AS,
                       (worker.MEMORY_CAP, worker.MEMORY_CAP))
    signal.signal(signal.SIGALRM, worker._alarm)
    import workloads
    catalogue, shares = draw_catalogue(workloads)
    timing = {name: record(workloads, name, cat)
              for name, cat in sorted(catalogue.items())}
    move_failing(catalogue["bmap-lift"], shares["bmap-lift"], "fiber-ok",
                 "fiber-defect", math.inf)
    # Keep every op that runs at most a third of the budget long.
    slow_s = workloads.WORKLOADS["cli-roundtrip"].budget_s / 3
    for source in ("dim3", "dim4"):
        move_failing(catalogue["cli-roundtrip"], shares["cli-roundtrip"],
                     source, "large", slow_s)
    reference = {"meta": {"python": platform.python_version(),
                          "timing": timing,
                          "shares": {name: {s: round(v, 4)
                                            for s, v in sorted(sh.items())}
                                     for name, sh in shares.items()}},
                 "workloads": catalogue}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
