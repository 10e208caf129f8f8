"""Tests of the benchmark: every entry point is wrapped at every
binding, a traced op reports every layer it calls, tracing changes no
output, and the workloads' patterns follow the measured natural shares of
their strata.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import blowup  # noqa: E402,F401  (imports every layer)
import layertrace  # noqa: E402
import workloads  # noqa: E402


def _originals():
    """Every entry point as the library defines it: (module, entry) ->
    (owner, attribute name, raw value)."""
    out = {}
    for module, entries in layertrace.ENTRIES.items():
        mod = sys.modules[f"blowup.{module}"]
        for entry in entries:
            if "." in entry:
                cls_name, attr = entry.split(".")
                owner = getattr(mod, cls_name)
            else:
                owner, attr = mod, entry
            out[(module, entry)] = (owner, attr, owner.__dict__[attr])
    return out


def test_every_entry_point_is_wrapped_at_every_binding():
    originals = _originals()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        bound = {id(v): (m.__name__, name)
                 for m in list(sys.modules.values())
                 if isinstance(getattr(m, "__dict__", None), dict)
                 for name, v in list(m.__dict__.items())}
        for (module, entry), (owner, attr, raw) in originals.items():
            now = owner.__dict__[attr]
            assert now is not raw, f"{module}.{entry} not wrapped"
            assert type(now) is type(raw), f"{module}.{entry} changed kind"
            if not inspect.isclass(owner):
                assert id(raw) not in bound, \
                    f"{module}.{entry} still bound at {bound[id(raw)]}"
    finally:
        tracer.uninstall()
    for (module, entry), (owner, attr, raw) in originals.items():
        assert owner.__dict__[attr] is raw, f"{module}.{entry} not restored"


def _catalogue(name):
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)["workloads"][name]


def _sample_ops(name, catalogue):
    """One quick op per stratum and op kind: the first item of each kind
    whose reference outcome did not hit the budget."""
    w = workloads.WORKLOADS[name]
    ops = []
    for stratum in w.strata():
        kinds = set()
        for index, item in enumerate(catalogue[stratum]):
            variant = w.variant(stratum, index)
            if variant not in kinds and \
                    item["ref"][variant].get("fail") != "budget":
                kinds.add(variant)
                ops.append((stratum, index, variant))
    return ops


def _run(prepared, ops):
    out = []
    for stratum, index, variant in ops:
        try:
            out.append(prepared.op(stratum, index, variant)())
        except Exception as e:
            out.append(type(e).__name__)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_it_calls(name, tmp_path):
    catalogue = _catalogue(name)
    prepared = workloads.Prepared(workloads.WORKLOADS[name], catalogue,
                                  str(tmp_path))
    ops = [op for op in _sample_ops(name, catalogue) if op[0] != "x1x2=x3"]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("blowup."):
                called.add(module.split(".")[1])

    sys.setprofile(profile)
    try:
        plain = _run(prepared, ops)
    finally:
        sys.setprofile(None)
    called &= set(layertrace.LAYERS)

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = _run(prepared, ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()

    assert traced == plain
    assert called == set(workloads.WORKLOADS[name].layers)
    for layer in called:
        calls = sum(metrics[f"{layer}.{e}.calls"]
                    for e in layertrace.ENTRIES[layer])
        assert calls > 0, f"{name} calls {layer} but the trace shows none"
    assert set(metrics) | {"trace.overhead_s", "trace.overhead_share"} \
        == set(layertrace.metric_units())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_patterns_follow_natural_shares(name):
    """A workload's pattern has each stratum's natural share of slots (as
    make_reference.py measured it in the test suite's draw), except where
    the workload says why not."""
    with open(os.path.join(BENCH, "reference.json")) as fh:
        shares = json.load(fh)["meta"]["shares"][name]
    w = workloads.WORKLOADS[name]
    natural = workloads.natural_counts(shares)
    for stratum in set(natural) | set(w.counts):
        differs = w.counts.get(stratum, 0) != natural.get(stratum, 0)
        assert differs == (stratum in w.deviations), stratum
    assert set(w.deviations) <= set(shares)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_ops_depend_only_on_the_seed(name):
    """A run's ops are the head and whole repeats of the pattern, enough
    to take the run's seconds at the reference times; a seed gives the
    same ops every time, and every seed the same number of each stratum,
    so runs attempt and fail alike."""
    catalogue = _catalogue(name)
    w = workloads.WORKLOADS[name]
    costs = workloads.reference_costs(w, catalogue)
    k = w.cycles(costs, 25.0)
    mean = {s: sum(c) / len(c) for s, c in costs.items()}
    planned = sum(mean[s] for s in w.head + w.pattern * k)
    assert planned >= 25.0 > planned - sum(mean[s] for s in w.pattern)
    by_seed = [w.ops(seed, costs, 25.0) for seed in (0, 7)]
    assert by_seed[0] == w.ops(0, costs, 25.0)
    assert [s for s, _, _ in by_seed[0]] == [s for s, _, _ in by_seed[1]]
    assert len(by_seed[0]) == len(w.head) + k * workloads.PATTERN_SLOTS
