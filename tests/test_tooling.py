"""Tables that tooling, traversals and the surface syntax rely on stay complete.

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


def test_every_binary_form_has_an_infix_row():
    """A term form whose Term fields are exactly ``left`` and ``right`` is
    printed and parsed through its ``terms.INFIX`` row, unless it is one
    of the two bracketed pairs; every row names such a form."""
    from qlog import terms as T

    bracketed = {T.Pair, T.TensorPair}
    binary = set()
    for cls in T.Term.__subclasses__():
        hints = typing.get_type_hints(cls)
        terms = {f.name for f in dataclasses.fields(cls) if hints[f.name] is T.Term}
        if terms == {"left", "right"}:
            binary.add(cls)
    rows = [cls for cls, _, _ in T.INFIX.values()]
    assert len(rows) == len(set(rows))
    assert set(rows) == binary - bracketed
    assert all(assoc in ("left", "right", "none") for _, _, assoc in T.INFIX.values())


def test_every_term_form_has_an_analyser_or_a_run_over_its_fields():
    """``Evaluator.analyse`` passes a node's fields, in order, to
    ``_run_<class>`` unless the form has its own ``_analyse_<class>``: a
    new form without either, or a run whose parameters drift from the
    fields, fails here instead of at its first evaluation."""
    import inspect

    from qlog import terms as T
    from qlog.evaluator import Evaluator

    for cls in T.Term.__subclasses__():
        if hasattr(Evaluator, "_analyse_" + cls.__name__):
            continue
        run = getattr(Evaluator, "_run_" + cls.__name__, None)
        assert run is not None, cls
        fields = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(run).parameters) == fields + ["ev", "env"], cls


def test_no_unused_imports():
    """Every name a module of the package imports is read in it, or is
    re-exported through its ``__all__``."""
    import ast

    src = os.path.join(os.path.dirname(__file__), "..", "src", "qlog")
    unused = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{fname}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_function_level_package_imports():
    """Modules of the package import each other at module level only."""
    import ast

    src = os.path.join(os.path.dirname(__file__), "..", "src", "qlog")
    local = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0] == "qlog"):
                    local.append(f"{fname}:{node.lineno}")
                elif isinstance(node, ast.Import) and any(
                        a.name.split(".")[0] == "qlog" for a in node.names):
                    local.append(f"{fname}:{node.lineno}")
    assert local == []


def test_only_from_pairs_builds_a_dist():
    """No module of the package calls ``Dist(...)`` outside
    ``Dist.from_pairs``, so every distribution has its points merged and
    sorted, and its weights, residuals and total mass checked, in one
    place."""
    import ast

    src = os.path.join(os.path.dirname(__file__), "..", "src", "qlog")
    calls = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        inside = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Dist":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "from_pairs":
                        inside.update(id(n) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            f = node.func
            if getattr(f, "id", None) == "Dist" or getattr(f, "attr", None) == "Dist":
                calls.append(f"{fname}:{node.lineno}")
    assert calls == []


def test_only_chain_reads_a_process_step():
    """In ``processes`` no code outside ``_chain`` reads a node's
    ``.step``, so every process algorithm runs on the one chain read per
    query, and none goes back to the lazy graph."""
    import ast

    path = os.path.join(os.path.dirname(__file__), "..", "src", "qlog", "processes.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_chain":
            inside.update(id(n) for n in ast.walk(fn))
    assert inside
    reads = [f"processes.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "step"
             and id(node) not in inside]
    assert reads == []


def test_td_calls_no_sort():
    """``td`` never sorts: no ``sorted(...)``, no ``.sort(...)`` and no
    ``_sort_support``.  Its rows, their masses and distances, the
    coupling cost (an exact sum rounded once) and the exact LP optimum
    do not depend on order, so a sort would be pure cost."""
    import ast

    path = os.path.join(os.path.dirname(__file__), "..", "src", "qlog", "td.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "sorted" or getattr(f, "attr", None) == "sort":
                found.append(f"td.py:{node.lineno}")
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.asname or a.name for a in node.names]
        if "_sort_support" in names:
            found.append(f"td.py:{node.lineno}: _sort_support")
    assert found == []


def test_no_new_private_imports_across_modules():
    """No module of the package imports another module's private
    (``_``-prefixed) name, by ``from .m import _x`` or as ``m._x`` on an
    imported module."""
    import ast

    src = os.path.join(os.path.dirname(__file__), "..", "src", "qlog")
    modules = {f[:-3] for f in os.listdir(src) if f.endswith(".py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = set()
    for mod in sorted(modules):
        with open(os.path.join(src, mod + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        aliases = {}  # a local name bound to a module of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "qlog"):
                source = (node.module or "").split(".")[-1]
                for a in node.names:
                    if a.name in modules and source in ("", "qlog"):
                        aliases[a.asname or a.name] = a.name
                    elif private(a.name):
                        found.add((mod, source, a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    parts = a.name.split(".")
                    if parts[0] == "qlog" and len(parts) == 2 and a.asname:
                        aliases[a.asname] = parts[1]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and private(node.attr)
                    and getattr(node.value, "id", None) in aliases):
                found.add((mod, aliases[node.value.id], node.attr))
    assert sorted(found) == []


def test_no_cross_call_caches():
    """No function of the package keeps state from one call to the next:
    none mutates a module-level dict, list or set (by item assignment or
    deletion, a mutating method or a ``global`` rebinding), and none is
    wrapped in ``functools.lru_cache`` or ``functools.cache``.  The
    benchmark repeats its items and relies on this."""
    import ast

    mutators = {"append", "extend", "insert", "add", "update", "setdefault",
                "pop", "popitem", "remove", "discard", "clear"}
    caches = {"lru_cache", "cache"}
    src = os.path.join(os.path.dirname(__file__), "..", "src", "qlog")
    found = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        shared = set()
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            value = getattr(node, "value", None)
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                         ast.ListComp, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) in ("dict", "list", "set"))
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and mutable:
                shared.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{fname}:{node.lineno}: {a.name}" for a in node.names
                          if a.name in caches]
            if (isinstance(node, ast.Attribute) and node.attr in caches
                    and getattr(node.value, "id", None) == "functools"):
                found.append(f"{fname}:{node.lineno}: functools.{node.attr}")
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    found.append(f"{fname}:{node.lineno}: global {node.names}")
                elif (isinstance(node, ast.Subscript)
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      and getattr(node.value, "id", None) in shared):
                    found.append(f"{fname}:{node.lineno}: {node.value.id}[...]")
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in mutators
                      and getattr(node.func.value, "id", None) in shared):
                    found.append(f"{fname}:{node.lineno}: {node.func.value.id}"
                                 f".{node.func.attr}")
    assert found == []


def test_grammar_doc_lists_the_rule_table():
    """The rule table of ``docs/grammar.md`` is ``logic.RULES``: each row
    gives the bound variables per premise and the rules that share them."""
    import re

    from qlog.logic import RULES

    doc = os.path.join(os.path.dirname(__file__), "..", "docs", "grammar.md")
    with open(doc, encoding="utf-8") as fh:
        rows = [line.split("|")[1:4] for line in fh if re.match(r"\| \d \|", line)]
    table = {}
    for premises, binds, rules in rows:
        row = tuple(int(k) for k in re.findall(r"\d+", binds))
        assert len(row) == int(premises)
        for rule in re.findall(r"`([^`]+)`", rules):
            assert rule not in table, rule
            table[rule] = row
    assert table == RULES
