"""The benchmark tracer's targets exist on the package it traces.

``bench/tracer.py`` wraps qlog functions by module and attribute path and
only counts the ones it cannot find, so a renamed or inlined function
would otherwise surface as a nonzero ``trace.missing_targets`` in a later
benchmark run.  The tracer file is loaded read-only (no bytecode written).
"""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("qlog_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for modname, path, span in tracer.TARGETS:
        owner = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
            assert isinstance(owner, type), span
            found = owner.__dict__.get(attr)  # defined on the class itself
        else:
            found = getattr(owner, attr, None)
        assert found is not None, f"{span}: {modname}.{path} is missing"
