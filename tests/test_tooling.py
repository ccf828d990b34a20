"""Tables that tooling and traversals rely on stay complete.

The benchmark tracer's targets exist on the package it traces.

``bench/tracer.py`` wraps qlog functions by module and attribute path and
only counts the ones it cannot find, so a renamed or inlined function
would otherwise surface as a nonzero ``trace.missing_targets`` in a later
benchmark run.  The tracer file is loaded read-only (no bytecode written).
"""

import dataclasses
import importlib
import importlib.util
import os
import sys
import typing

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


def test_every_binder_form_has_a_scope_row():
    """A name-carrying field of a term is either a bound name listed in
    ``terms.SCOPES`` or one of the three free ones; every scope body is a
    Term field.  A new binder form without a row fails here instead of
    being traversed as if it bound nothing."""
    from qlog import terms as T

    free_names = {(T.Var, "name"), (T.Label, "name"), (T.Label, "alphabet")}
    forms = T.Term.__subclasses__()
    assert set(T.SCOPES) <= set(forms)
    for cls in forms:
        hints = typing.get_type_hints(cls)
        scopes = T.SCOPES.get(cls, ())
        bound = [b for binders, _ in scopes for b in binders]
        assert len(bound) == len(set(bound)), cls
        names = {f.name for f in dataclasses.fields(cls)
                 if hints[f.name] in (str, typing.Optional[str])}
        assert names == set(bound) | {f for c, f in free_names if c is cls}, cls
        for _, body in scopes:
            assert hints[body] is T.Term, (cls, body)
