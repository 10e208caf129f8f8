"""The benchmark's per-layer tracer wraps library functions by name, so a
renamed or deleted entry point breaks every traced benchmark run.  The
tracer's own tests live under perfbench/tests, outside this suite; this
one checks that every name it wraps still exists."""

import importlib
import importlib.util
import os

LAYERTRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "layertrace.py")


def test_every_traced_entry_resolves():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for module, entries in layertrace.ENTRIES.items():
        mod = importlib.import_module(f"blowup.{module}")
        for entry in entries:
            owner = mod
            for part in entry.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module}.{entry}")
    assert not missing, f"traced entry points not in blowup: {missing}"
