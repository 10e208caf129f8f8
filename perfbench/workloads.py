"""The three benchmark workloads: inputs, one op per input, output checks
and id-independent output digests.

A workload is a set of strata.  A stratum is one class of inputs, chosen by
the input property that sets most of an op's cost: for example binomial
systems in 3 variables whose one exponent vector has a zero entry, or lift
rounds whose blow-up has 8 elements.  `make_reference.py` draws the inputs
the way the test suite draws them, sorts them into strata, and stores them
in `reference.json` with the digest (or failure cause) each one gave at the
commit the reference was recorded at, and with each stratum's share of the
draw.  The ops interleave the strata in a fixed pattern built from those
shares, and a run's seed picks where in a cost-balanced order of each
stratum's items it starts, so any stretch of a run has the same mix of
input classes and costs whatever the seed.  That keeps the numbers steady
across seeds.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from typing import Callable, Dict, Iterator, List, Tuple

# Library functions are called through their modules, never imported by
# name, so the traced run's wrappers (installed on the modules) see them.
from blowup import (binomial, chartcheck, cli, complexes, fiber, manifolds,
                    monoids, serialization)
from blowup.chartcheck import SamplePlan
from blowup.errors import BlowupError, NotInSupport, NotPointedLattice
from blowup.exactla import identity
from blowup.fiber import FiberProblem
from blowup.manifolds import BMap, corner_model


class CheckFailed(Exception):
    """An op returned, but its output violates an invariant."""


def digest(obj) -> str:
    """A short digest of a JSON-able value (tuples become lists)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _keys(complex_) -> List:
    """Sorted canonical keys of a complex's monoids: independent of the
    element ids, which name elements by construction order."""
    return sorted(m.key for m in complex_.monoids.values())


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# binomial-resolve
# ---------------------------------------------------------------------------

# The fixed 4-variable system x1 x2 = x3: 44 elements, the largest complex
# in the benchmark, so a gain that grows with complex size shows here.
X1X2_X3 = [[[1, 1, 0, 0], [0, 0, 1, 0]]]


def draw_system_pairs(rng: random.Random) -> List:
    """Raw equations, drawn as the test suite's random_systems(rng, count,
    max_dim=3) draws them: 2-3 variables, 1-2 equations, entries 0..2,
    drawn again from the number of variables on when rejected."""
    while True:
        n = rng.randint(2, 3)
        k = rng.randint(1, 2)
        pairs = [[[rng.randint(0, 2) for _ in range(n)],
                  [rng.randint(0, 2) for _ in range(n)]] for _ in range(k)]
        try:
            binomial.normal_form(pairs, tangential_dim=k)
        except (NotInSupport, ValueError):
            continue
        return pairs


def system_class(b) -> str:
    """The stratum of a binomial system: n2 (2 variables, at most one
    independent exponent vector); n2-rank2 and n3-rank2 (2 or 3 variables,
    two independent exponent vectors: defect (a)); n3-rank0 (3 variables,
    no exponent vector); n3-supp1/2/3 (3 variables, one exponent vector
    with that many nonzero entries)."""
    rank = len(b.gammas)
    if b.boundary_dim == 2:
        return "n2" if rank <= 1 else "n2-rank2"
    if rank == 1:
        return f"n3-supp{sum(1 for x in b.gammas[0] if x)}"
    return f"n3-rank{rank}"


def system_from_pairs(pairs):
    return binomial.normal_form([tuple(map(tuple, p)) for p in pairs],
                                tangential_dim=len(pairs))


def resolve_op(b) -> str:
    res = binomial.resolve(b)
    total = res.refinement
    _check(total.source.is_smooth(), "resolution source not smooth")
    _check(all(s in (-1, 0, 1) for s in res.chart_signs.values()),
           "chart sign outside {-1, 0, 1}")
    # The resolution restricts to the chosen refinement of the variety
    # complex: over each variety face the lifted elements are its members.
    rd = res.variety_refinement
    for fid in res.pd.elements:
        over = {total.morphism.image_in(e, fid) for e in res.lifted
                if total.target.leq(total.morphism.node_map[e], fid)}
        _check(over == set(rd.localize(fid).members),
               f"resolution does not restrict to r_d over {fid}")
    return digest([_keys(total.source),
                   sorted(res.chart_signs.values())])


# ---------------------------------------------------------------------------
# bmap-lift
# ---------------------------------------------------------------------------


def random_blowup(x, rng: random.Random):
    """A blow-up of x along a random iterated star subdivision (as in the
    acceptance suite's criterion 5)."""
    q = x.basic_complex()
    r = complexes.identity_refinement(q)
    for _ in range(rng.randint(1, 2)):
        rs = r.source
        pool = [e for e in rs.elements if rs.monoids[e].dim >= 2]
        if not pool:
            break
        a = rng.choice(sorted(pool))
        v = rs.monoids[a].interior_point()
        r = r.compose(complexes.star_subdivide_complex(rs, a, v))
    return manifolds.generalized_blowup(x, r)


def lift_class(n: int, rng: random.Random) -> str:
    """The stratum of a lift round: by the number of elements of its
    blow-up's complex, which sets most of the round's cost."""
    size = len(random_blowup(corner_model(n), rng).refinement.source.elements)
    if n == 2:
        return "lift2-6" if size <= 6 else "lift2-8"
    return "lift3" if size <= 14 else "lift3-large"


def _bmap_digest(f: BMap) -> List:
    return sorted(f.exponents.values())


def lift_op(n: int, rng: random.Random) -> str:
    """One criterion-5 round: blow up [0, inf)^n, lift the blow-down of a
    finer blow-up through it, check functoriality, then build and verify
    the chart atlas."""
    y = corner_model(n)
    blowup = random_blowup(y, rng)
    finer = blowup.refinement
    rs = finer.source
    pool = [e for e in rs.elements if rs.monoids[e].dim >= 2]
    if pool:
        a = rng.choice(sorted(pool))
        v = rs.monoids[a].interior_point()
        finer = finer.compose(complexes.star_subdivide_complex(rs, a, v))
    f = manifolds.generalized_blowup(y, finer).blowdown
    lift = manifolds.lift_bmap(f, blowup)
    _check(lift.bmap.compose(blowup.blowdown) == f,
           "lift does not compose back to the map")
    g = random_blowup(f.source, rng).blowdown
    composed = manifolds.lift_bmap(g.compose(f), blowup)
    _check(composed.bmap == g.compose(lift.bmap),
           "lifting does not commute with precomposition")
    atlas = manifolds.local_atlas(blowup.refinement)
    report = chartcheck.verify_transitions(atlas,
                                           SamplePlan(count=20, seed=7))
    _check(report.passed, f"chart transitions: {report.failures[:1]}")
    return digest([_keys(blowup.refinement.source), _keys(finer.source),
                   _bmap_digest(lift.bmap), _bmap_digest(composed.bmap),
                   sorted(c.nu for c in atlas.charts.values()),
                   len(atlas.transitions)])


def sum_map() -> BMap:
    """The square mapped to the half line by the sum of the boundary
    defining functions."""
    return BMap(corner_model(2), corner_model(1),
                {"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
                {("H1", "H1"): 1, ("H2", "H1"): 1})


def simple_bmap_from(n_src: int, n_tgt: int, owner: Dict) -> BMap:
    """The simple b-map in which target hypersurface H_j is hit with
    exponent one by source hypersurface owner[H_j] (or by none)."""
    x = corner_model(n_src, prefix="G")
    y = corner_model(n_tgt)
    targets_of = {g: {h for h, o in owner.items() if o == g}
                  for g in x.hypersurfaces()}
    face_map = {}
    for f in x.faces:
        imgs = set()
        for g in x.incidence[f]:
            imgs |= targets_of[g]
        face_map[f] = "X" if not imgs else "&".join(sorted(imgs))
    return BMap(x, y, face_map, {(g, h): 1 for h, g in owner.items()
                                 if g is not None})


def draw_simple_pair(rng: random.Random) -> Dict:
    """A transversal pair of simple b-maps, drawn as the acceptance
    suite's criterion 6 draws them; returned as plain data."""
    while True:
        nt = rng.randint(1, 2)
        maps = []
        for _ in range(2):
            ns = rng.randint(1, 3)
            hs = [f"G{i + 1}" for i in range(ns)]
            while True:
                owner = {f"H{j + 1}": rng.choice([None] + hs)
                         for j in range(nt)}
                f = simple_bmap_from(ns, nt, owner)
                try:
                    f.validate()
                except BlowupError:
                    continue
                break
            maps.append({"n_src": ns, "n_tgt": nt, "owner": owner})
        p = FiberProblem(*(simple_bmap_from(**m) for m in maps))
        if fiber.b_normal_transversality(p).transversal:
            return {"f1": maps[0], "f2": maps[1]}


def fiber_op(p: FiberProblem) -> str:
    res = fiber.resolve_fiber_product(p)
    _check(res.refinement.source.is_smooth(), "resolution not smooth")
    return digest([_keys(res.refinement.source), _bmap_digest(res.h1),
                   _bmap_digest(res.h2)])


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

COMMANDS = ("hilbert", "faces", "subdivide")

# Dimension-4 monoid documents with this many Hilbert basis elements or
# more are the large ones: at the reference commit parsing one took from
# 18 s to over 60 s in Fourier-Motzkin, and most smaller ones took under
# 0.5 s (make_reference.move_failing handles the few that did not).
LARGE_DOC = 14
# Documents with this many generators or more (in either dimension) are
# the slowest of the ones that parse within the budget (strata dim3-big
# and dim4-big).
BIG_DOC = 10


def doc_class(dim: int, generators: int) -> str:
    """The stratum of a monoid document by its dimension and number of
    generators: dim3 / dim4, dim3-big / dim4-big, or large."""
    if dim == 4 and generators >= LARGE_DOC:
        return "large"
    return f"dim{dim}-big" if generators >= BIG_DOC else f"dim{dim}"


def draw_positive_monoid(rng: random.Random, dim: int, max_entry: int = 3):
    """A pointed full-lattice monoid with rays in the positive orthant,
    drawn as the test suite's random_positive_monoid draws it."""
    while True:
        rays = [v for v in (tuple(rng.randint(0, max_entry)
                                  for _ in range(dim))
                            for _ in range(rng.randint(dim, dim + 2)))
                if any(v)]
        if not rays:
            continue
        try:
            return monoids.ToricMonoid.make(dim, identity(dim), rays)
        except NotPointedLattice:
            continue


def cli_args(command: str, path: str, out: str, star: str) -> List[str]:
    args = [command, path, "--out", out]
    return args + ["--star", star] if command == "subdivide" else args


def cli_op(command: str, path: str, out: str, star: str) -> str:
    """One in-process CLI call on a monoid document; the output document
    is read back and must parse to the same object."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(cli_args(command, path, out, star))
    _check(rc == 0, f"exit {rc}: {err.getvalue().strip()[:200]}")
    with open(out) as fh:
        text = fh.read()
    os.remove(out)
    _check(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
           == text, "output does not parse back to the same document")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------


PATTERN_SLOTS = 20  # ops in one repeat of a workload's pattern


def natural_counts(shares: Dict[str, float]) -> Dict[str, int]:
    """Slots of a PATTERN_SLOTS-op pattern per stratum in proportion to
    the strata's natural shares (largest remainders)."""
    total = sum(shares.values())
    exact = {s: PATTERN_SLOTS * v / total for s, v in shares.items()}
    counts = {s: int(x) for s, x in exact.items()}
    by_rest = sorted(exact, key=lambda s: (counts[s] - exact[s], s))
    for s in by_rest[:PATTERN_SLOTS - sum(counts.values())]:
        counts[s] += 1
    return counts


def interleave(counts: Dict[str, int]) -> Tuple[str, ...]:
    """A pattern with counts[s] slots of each stratum s, each stratum's
    slots spread evenly, so every stretch of the pattern has about the
    same mix."""
    slots = sorted(((k + 0.5) / n, s) for s, n in counts.items()
                   for k in range(n))
    return tuple(s for _, s in slots)


class Workload:
    """name: the workload name; budget_s: the per-op wall-time budget;
    head: strata whose first item runs once at the start of every run, the
    same op whatever the seed; counts: the slots of each stratum in the
    PATTERN_SLOTS-op pattern that repeats after the head (see ops);
    deviations: why a stratum's slots differ from its natural share
    (make_reference.py measures the shares in the test suite's draw and
    natural_counts turns them into slots); last: strata whose first
    item runs once after the pattern; commands: the CLI commands a
    stratum's items take in turn, one per item (see variant); layers: the
    blowup modules the workload calls."""

    def __init__(self, name, budget_s, head, counts, deviations, layers,
                 last=(), commands=()):
        assert sum(counts.values()) == PATTERN_SLOTS, name
        self.name = name
        self.budget_s = budget_s
        self.head = head
        self.counts = counts
        self.deviations = deviations
        self.pattern = interleave(counts)
        self.layers = layers
        self.last = last
        self.commands = dict(commands)

    def strata(self) -> List[str]:
        return sorted(set(self.head) | set(self.pattern) | set(self.last))

    def variant(self, stratum: str, index: int) -> str:
        """The op kind run on an item: the stratum's commands in turn over
        its items (one op kind, "", if the stratum is not listed)."""
        variants = self.commands.get(stratum, ("",))
        return variants[index % len(variants)]

    def stream(self, seed: int, costs: Dict[str, List[float]]
               ) -> Iterator[Tuple[str, int, str]]:
        """The run's endless op sequence of (stratum, index, variant): the
        head, then the pattern over and over.  Each pattern stratum yields
        its items in a cost-balanced order (see balanced_order) from a
        seeded start, starting again when they are used up."""
        for s in self.head:
            yield s, 0, self.variant(s, 0)
        rng = random.Random(seed)
        order = {}
        for s in sorted(set(self.pattern)):
            order[s] = balanced_order(costs[s])
            start = rng.randrange(len(order[s]))
            order[s] = order[s][start:] + order[s][:start]
        used = dict.fromkeys(order, 0)
        for s in itertools.cycle(self.pattern):
            index = order[s][used[s] % len(order[s])]
            yield s, index, self.variant(s, index)
            used[s] += 1

    def cycles(self, costs: Dict[str, List[float]], seconds: float) -> int:
        """The fewest repeats of the pattern (at least one) that, with the
        head, take `seconds` at the reference times: each slot counted at
        its stratum's mean reference time, the same for every seed."""
        head = sum(costs[s][0] for s in self.head)
        cycle = sum(n * sum(costs[s]) / len(costs[s])
                    for s, n in self.counts.items())
        return max(1, math.ceil((seconds - head) / cycle))

    def ops(self, seed: int, costs: Dict[str, List[float]],
            seconds: float) -> List[Tuple[str, int, str]]:
        """A run's ops: the head and `cycles` whole repeats of the pattern.
        How many ops a run attempts, and how many of each stratum, depend
        only on `seconds`; which items, only on the seed.  So every run
        with one seed attempts the same ops however fast the program
        runs, and runs with any seed fail alike."""
        n = len(self.head) + self.cycles(costs, seconds) * PATTERN_SLOTS
        return list(itertools.islice(self.stream(seed, costs), n))


def balanced_order(costs: List[float]) -> List[int]:
    """The item indices in an order in which every stretch has about the
    same mix of cheap and dear items: the items ranked by cost, the ranks
    ordered by the fractional part of rank times the golden ratio.  A run
    takes a stretch of this order, so which items the seed picks moves the
    run's cost little."""
    by_cost = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    ranks = sorted(range(len(costs)), key=lambda r: (r * GOLDEN) % 1.0)
    return [by_cost[r] for r in ranks]


GOLDEN = (1 + 5 ** 0.5) / 2


# Reasons for strata that run once per run (head or last), not in the
# pattern, and for the cli pattern's make-up.
ONCE = "runs once per run, not in the pattern: "
SMALL_DOCS = ("the pattern has only the documents with fewer than BIG_DOC "
              "generators, dim3 and dim4 in their natural ratio")

WORKLOADS = {
    w.name: w for w in (
        # Mostly the complexes layer (extend_refinement,
        # assemble_from_local, NS) on many repeated small monoids.
        Workload(
            "binomial-resolve", 60.0, head=("x1x2=x3",),
            counts={"n2": 5, "n2-rank2": 1, "n3-rank0": 1, "n3-rank2": 3,
                    "n3-supp2": 8, "n3-supp3": 2},
            deviations=dict(
                {s: "fewer n2 (~50 ms) and n3-supp3 (0.7-1.3 s) ops, more "
                    "n3-supp2 (0.3-0.7 s), so that the median and the tail "
                    "percentile both fall inside the n3-supp2/n3-rank0 "
                    "cost class; at the natural shares they sit at its "
                    "edges, and which side they fall on follows the seed"
                 for s in ("n2", "n3-supp2", "n3-supp3")},
                **{"n2-rank2": "one slot, so the 2-variable form of "
                               "defect (a) runs (0.4 slots at its natural "
                               "share)"}),
            layers=("exactla", "monoids", "refinements", "complexes",
                    "manifolds", "binomial")),
        # manifolds, fiber and chartcheck on complexes of 6-18 elements.
        Workload(
            "bmap-lift", 30.0, head=("lift3-large", "lift3"),
            counts={"lift2-6": 3, "lift2-8": 7, "fiber-defect": 5,
                    "fiber-sum": 3, "fiber-ok": 2},
            deviations=dict(
                {s: ONCE + "a round on [0, inf)^3 took 1.0-4.6 s"
                 for s in ("lift3", "lift3-large")},
                **{s: "more 8-element rounds and sum-map ops: the median "
                      "falls among the 8-element rounds and the tail "
                      "percentile among the sum-map ops, one fixed input"
                   for s in ("lift2-6", "lift2-8", "fiber-sum")}),
            layers=("exactla", "monoids", "refinements", "complexes",
                    "manifolds", "binomial", "fiber", "chartcheck")),
        # serialization and cli on monoid documents, each parsed into a new
        # monoid by from_generators; a document repeats only once its
        # stratum is used up (after 280 dim-3 or 120 dim-4 ops, about the
        # length of a run).  Subdivision runs on dim-3 documents only: on
        # dim 4 it took 0.9-3.7 s.  The last op spends the whole budget in
        # Fourier-Motzkin; it runs after the peak RSS is read, because the
        # memory it reaches in the budget depends on the host's speed.
        Workload(
            "cli-roundtrip", 9.0, head=(),
            counts={"dim3": 14, "dim4": 6},
            deviations={
                "dim3": SMALL_DOCS, "dim4": SMALL_DOCS,
                "large": ONCE + "each op spends the whole 9 s budget; at "
                         "the natural share they would take nine tenths "
                         "of the run's time",
                "dim3-big": "not run: one in five of their ops took "
                            "0.5-2.9 s, and the tail and peak RSS would "
                            "follow which of them the seed picks",
                "dim4-big": "not run: as dim3-big"},
            last=("large",),
            commands={"dim3": COMMANDS, "dim4": COMMANDS[:2],
                      "large": COMMANDS[:1]},
            layers=("exactla", "monoids", "refinements",
                    "serialization", "cli")),
    )
}


def reference_costs(w: Workload, catalogue: Dict) -> Dict[str, List[float]]:
    """Each item's reference time, by stratum."""
    return {s: [item["ref"][w.variant(s, i)]["s"]
                for i, item in enumerate(items)]
            for s, items in catalogue.items()}


class Prepared:
    """A workload's inputs, built once in set-up, and its op runner."""

    def __init__(self, w: Workload, catalogue: Dict, workdir: str):
        self.w = w
        self.catalogue = catalogue
        self.workdir = workdir
        self.inputs = {s: [self._build(s, i, item)
                           for i, item in enumerate(catalogue[s])]
                       for s in catalogue}

    def _build(self, stratum: str, index: int, item: Dict):
        name = self.w.name
        if name == "binomial-resolve":
            return system_from_pairs(item["pairs"])
        if name == "bmap-lift":
            if stratum == "fiber-sum":
                return FiberProblem(sum_map(), sum_map())
            if stratum.startswith("fiber"):
                return FiberProblem(simple_bmap_from(**item["f1"]),
                                    simple_bmap_from(**item["f2"]))
            return item
        return serialization.dumps(item["doc"]) + "\n"

    def op(self, stratum: str, index: int,
           variant: str) -> Callable[[], str]:
        """One op, as a call that runs it and returns its output digest.
        The op's input is staged first, outside the call: a cli op's
        document is written to its file here, so file-system writes are
        neither set-up nor op time."""
        inp = self.inputs[stratum][index]
        name = self.w.name
        if name == "binomial-resolve":
            return lambda: resolve_op(inp)
        if name == "bmap-lift":
            if stratum.startswith("fiber"):
                return lambda: fiber_op(inp)
            return lambda: lift_op(inp["n"], random.Random(inp["rng"]))
        path = os.path.join(self.workdir, "in.json")
        with open(path, "w") as fh:
            fh.write(inp)
        out = os.path.join(self.workdir, "out.json")
        star = self.catalogue[stratum][index]["star"]
        return lambda: cli_op(variant, path, out, star)

    def warm_up(self) -> None:
        """One small fixed op per op kind, so lazy imports and first-call
        costs are paid in set-up."""
        name = self.w.name
        if name == "binomial-resolve":
            resolve_op(system_from_pairs([[[1, 0], [0, 1]]]))
        elif name == "bmap-lift":
            lift_op(2, random.Random(0))
            fiber_op(FiberProblem(
                simple_bmap_from(1, 1, {"H1": "G1"}),
                simple_bmap_from(1, 1, {"H1": "G1"})))
        else:
            path = os.path.join(self.workdir, "warm-up.json")
            with open(path, "w") as fh:
                fh.write(serialization.dumps(
                    {"kind": "monoid", "version": serialization.VERSION,
                     "ambient_dim": 2, "generators": [[1, 0], [0, 1]]}))
            for command in COMMANDS:
                cli_op(command, path, os.path.join(self.workdir, "out.json"),
                       "1,1")
