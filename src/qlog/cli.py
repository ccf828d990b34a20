"""Batch command line: `qlog <command> ...`.

Commands
  check FILE...          typecheck every definition in .qlog files
  eval FILE --def NAME   evaluate a definition; prints {value, radius}
  distance FILE --left A --right B [--proc]
                         distance between two definitions' values
  prove FILE.json        structurally check a derivation tree
  judge FILE.json        semantically check a judgment on sampled envs
  casestudy NAME         markov | coin | td | hypercube | hoare-ast | prp
  hoare ...              relational triple over two .imp programs
  suite                  run the full acceptance suite

Exit status: 0 all checks passed, 1 a check failed, 2 usage or parse
error.  With --format json every report is schema-stable
(`"schema": "qlog/1"`) and byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import acceptance
from .evaluator import EnumSpec, EvalConfig, EvalError, Evaluator
from .grades import Grade
from .hoare import prp_prf_check, triple_value
from .hypercube import hypercube_contraction_check
from .imp import ImpError, Store, parse_imp, parse_store_pred
from .logic import check_derivation, check_semantic, load_derivation_file, load_judgment_file
from .parser import InputError, QlogSyntaxError, located, parse_file, parse_term
from .processes import ProcessError, behavioral_distance, bisimilarity_distance
from .sampling import sample_envs
from .td import random_mdp, random_vector, td_contraction_check
from .terms import TProc
from .typecheck import Checker, TypeCheckError
from .values import value_to_json

SCHEMA = "qlog/1"


def _report(args, payload: dict, status: str) -> int:
    payload = {"schema": SCHEMA, "status": status, **payload}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for k, v in payload.items():
            if k == "schema":
                continue
            print(f"{k}: {json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}")
    return 0 if status == "ok" else 1


@contextmanager
def _input_file(path: str):
    """Names ``path`` in a syntax or malformed-input error raised inside."""
    try:
        yield
    except (QlogSyntaxError, InputError) as e:
        raise InputError(located(path, e)) from None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_qlog(path: str):
    text = _read(path)
    with _input_file(path):
        return parse_file(text)


# The largest finite bound an enumeration file may set: quantifying over
# Nat up to it builds a list of that many values (docs/grammar.md).
ENUM_BOUND_MAX = 10**6


def _enum_spec(path: str) -> EnumSpec:
    """The enumeration file at ``path``, checked by key (docs/grammar.md)."""
    try:
        entries = json.loads(_read(path))
    except ValueError as e:  # not JSON, or not UTF-8
        raise InputError(f"{path}: not JSON: {e}") from None
    if not isinstance(entries, dict):
        raise InputError(f"{path}: an enumeration file is a JSON object")
    for key, e in entries.items():
        e = e if isinstance(e, dict) else {}
        # only Nat needs a bound; other finite types enumerate themselves
        bound, terms = e.get("bound", None if key == "Nat" else 0), e.get("terms", [])
        if not (e.get("mode") == "finite" and type(bound) is int  # no bool
                and 0 <= bound <= ENUM_BOUND_MAX
                or e.get("mode") == "samples" and isinstance(terms, list)
                and all(isinstance(t, str) for t in terms)):
            raise InputError(f'{path}: {json.dumps(key)}: expected {{"mode": "finite", '
                             f'"bound": <integer 0 to {ENUM_BOUND_MAX}, needed for Nat>}} or '
                             '{"mode": "samples", "terms": [<string>, ...]}')
        for t in terms if e.get("mode") == "samples" else ():
            try:
                parse_term(t)
            except QlogSyntaxError as err:
                where = f"{path}: {json.dumps(key)}: samples term {json.dumps(t)}"
                raise InputError(located(where, err)) from None
    return EnumSpec(entries)


def _evaluator(args, alphabets) -> Evaluator:
    enums = _enum_spec(args.enums) if args.enums else EnumSpec()
    cfg = EvalConfig(fuel=args.fuel, tol=args.tol, enums=enums)
    return Evaluator(Checker(alphabets), cfg)


def _check_file(path: str):
    qfile = _load_qlog(path)
    ck = Checker(qfile.alphabets)
    results = []
    ok = True
    for name, d in qfile.defs.items():
        try:
            if d.declared_type is not None:
                ck.check(qfile.ctx, d.term, d.declared_type)
                _, usage = ck.synthesize(qfile.ctx.types(), d.term)
                ty = d.declared_type
            else:
                ty, usage = ck.synthesize(qfile.ctx.types(), d.term)
            results.append(
                {"def": name, "type": str(ty),
                 "usage": {k: str(v) for k, v in sorted(usage.items())}}
            )
        except TypeCheckError as e:
            ok = False
            entry = {"def": name, "error": json.loads(e.render_json())}
            results.append(entry)
    return ok, results


def cmd_check(args) -> int:
    all_ok = True
    reports = []
    for path in args.files:
        ok, results = _check_file(path)
        all_ok = all_ok and ok
        reports.append({"file": path, "defs": results})
    return _report(args, {"files": reports}, "ok" if all_ok else "error")


def _eval_defs(args):
    qfile = _load_qlog(args.file)
    ev = _evaluator(args, qfile.alphabets)
    return qfile, ev, ev.eval_defs(qfile)


def cmd_eval(args) -> int:
    _, _, values = _eval_defs(args)
    if args.def_name not in values:
        print(f"no definition named {args.def_name}", file=sys.stderr)
        return 2
    out = values[args.def_name]
    payload = {
        "def": args.def_name,
        "value": value_to_json(out.value),
        "radius": out.radius,
    }
    if out.sided:
        payload["sided"] = out.sided
    return _report(args, payload, "ok")


def cmd_distance(args) -> int:
    if args.bisim and not args.proc:
        print("--bisim needs --proc", file=sys.stderr)
        return 2
    qfile, ev, values = _eval_defs(args)
    for nm in (args.left, args.right):
        if nm not in values:
            print(f"no definition named {nm}", file=sys.stderr)
            return 2
    lv, rv = values[args.left], values[args.right]
    ty = qfile.defs[args.left].declared_type
    if args.proc:
        if not isinstance(ty, TProc):
            print("--proc needs process-typed definitions", file=sys.stderr)
            return 2
        distance = bisimilarity_distance if args.bisim else behavioral_distance
        d = distance(ev, lv.value, rv.value, ty.c, args.tol)
    else:
        if ty is None:
            ty, _ = ev.checker.synthesize(qfile.ctx.types(), qfile.defs[args.left].term)
        d = ev.distance_at(ty, lv.value, rv.value)
        d = d.widen(lv.radius + rv.radius)
    payload = {"left": args.left, "right": args.right,
               "value": d.value, "radius": d.radius}
    if d.sided:
        payload["sided"] = d.sided
    return _report(args, payload, "ok")


def cmd_prove(args) -> int:
    text = _read(args.file)
    with _input_file(args.file):
        qfile, deriv = load_derivation_file(
            text, base_dir=os.path.dirname(os.path.abspath(args.file))
        )
        ck = Checker(qfile.alphabets if qfile else {})
        rep = check_derivation(ck, deriv, qfile)
    payload = rep.to_json()
    return _report(args, payload, "ok" if rep.ok else "error")


def cmd_judge(args) -> int:
    text = _read(args.file)
    with _input_file(args.file):
        qfile, judgment = load_judgment_file(
            text, os.path.dirname(os.path.abspath(args.file))
        )
    ev = _evaluator(args, qfile.alphabets if qfile else {})
    envs = sample_envs(ev, judgment.delta, args.envs, seed=args.seed)
    rep = check_semantic(ev, judgment, envs, tol=args.tol)
    return _report(args, rep.to_json(), "ok" if rep.ok else "error")


# -- case studies ------------------------------------------------------------


def cmd_casestudy(args) -> int:
    name = args.name
    if name == "markov":
        _, ok, detail = acceptance.check_markov_quarter()
        return _report(args, {"case": name, "detail": detail},
                       "ok" if ok else "error")
    if name == "coin":
        c = args.c
        eps = args.eps
        # checked here, before they are spliced into generated source
        if not 0 < c < 1:
            return _usage_error(f"casestudy coin: --c must lie in (0, 1), got {c}")
        if not -Fraction(1, 2) < eps < Fraction(1, 2):
            return _usage_error(
                f"casestudy coin: --eps must lie in (-1/2, 1/2), got {eps}"
            )
        source = (
            "alphabet C = { Hd, Tl }\n"
            f"def fair : Proc[{c}] C & Proc[{c}] C = fix x : Proc[{c}] C & Proc[{c}] C. "
            f"< proc(Hd, delta(fst x) (+ 1/2) delta(snd x)),"
            f"  proc(Tl, delta(fst x) (+ 1/2) delta(snd x)) >\n"
            f"def biased : Proc[{c}] C & Proc[{c}] C = fix x : Proc[{c}] C & Proc[{c}] C. "
            f"< proc(Hd, delta(fst x) (+ {Fraction(1,2)-eps}) delta(snd x)),"
            f"  proc(Tl, delta(fst x) (+ {Fraction(1,2)-eps}) delta(snd x)) >\n"
            f"def hd : Proc[{c}] C = fst fair\n"
            f"def hde : Proc[{c}] C = fst biased\n"
        )
        qfile = parse_file(source)
        ev = _evaluator(args, qfile.alphabets)
        vals = ev.eval_defs(qfile)
        d = behavioral_distance(ev, vals["hd"].value, vals["hde"].value,
                                Grade(c), args.tol)
        # biasing by -eps mirrors biasing by eps
        expect = float(c * abs(eps) / (1 - c + c * abs(eps)))
        ok = abs(d.value - expect) <= max(args.tol * 10, 1e-3)
        return _report(args, {
            "case": name, "c": str(c), "eps": str(eps),
            "measured": d.value, "radius": d.radius, "closed_form": expect,
        }, "ok" if ok else "error")
    if name == "td":
        mdp = random_mdp(args.seed)
        try:  # replace() reruns MDP.__post_init__, which checks alpha, gamma
            mdp = dataclasses.replace(mdp, alpha=args.alpha, gamma=args.gamma)
        except ValueError as e:
            return _usage_error(f"casestudy td: {e}")
        v = random_vector(args.seed * 2 + 1, 3)
        w = random_vector(args.seed * 2 + 2, 3)
        try:
            rep = td_contraction_check(mdp, v, w, args.n, tol=args.tol)
        except ValueError as e:  # a bad --tol, or support_cap outgrown
            return _usage_error(f"casestudy td: {e}")
        return _report(args, rep.to_json(), "ok" if rep.ok else "error")
    if name == "hypercube":
        rep = hypercube_contraction_check(args.n)
        return _report(args, rep.to_json(), "ok" if rep.ok else "error")
    if name == "hoare-ast":
        _, ok, detail = acceptance.check_hoare_termination()
        return _report(args, {"case": name, "detail": detail},
                       "ok" if ok else "error")
    if name == "prp":
        if args.l > args.n:
            return _usage_error(
                "casestudy prp: need array length --l <= value range --n"
            )
        rep = prp_prf_check(args.l, args.n)
        return _report(args, rep.to_json(), "ok" if rep.ok else "error")
    print(f"unknown case study {name}", file=sys.stderr)
    return 2


# -- hoare triples on .imp programs ------------------------------------------


def _store_from_json(prog, obj: dict) -> Store:
    if not isinstance(obj, dict):
        raise ValueError(f"a store is a JSON object, got {obj!r}")
    s = prog.initial_store()
    for k, v in obj.items():
        cells = ([(f"{k}[{i}]", (k, i), x) for i, x in enumerate(v)]
                 if isinstance(v, list) else [(k, k, v)])
        for name, key, x in cells:
            if type(x) is not int or x < 0:  # a bool, float, string, ...
                raise ValueError(f"{name} must be an integer >= 0, got {json.dumps(x)}")
            s = s.set(key, x)
    return s


def cmd_hoare(args) -> int:
    progs = []
    for path in (args.left, args.right):
        try:
            progs.append(parse_imp(_read(path)))
        except ImpError as e:
            return _usage_error(located(path, e))
    left, right = progs
    pairs = [(left.initial_store(), right.initial_store())]
    if args.stores:
        with open(args.stores) as fh:
            try:
                pairs = [
                    (_store_from_json(left, a), _store_from_json(right, b))
                    for a, b in json.load(fh)["pairs"]
                ]
            except (ValueError, TypeError, KeyError) as e:
                return _usage_error(f"{args.stores}: bad stores entry: {e}")
    preds = []
    for flag, text in (("--pre", args.pre), ("--post", args.post)):
        # every store a triple reads has its program's layout, so one
        # read on each input pair finds every undeclared name
        try:
            preds.append(parse_store_pred(text))
            for s, s2 in pairs:
                preds[-1](s, s2)
        except (ValueError, TypeError) as e:  # TypeError: an array against a number
            return _usage_error(located(flag, e))
    res = triple_value(
        left, left.body, right, right.body, *preds, args.mode, pairs,
        max_iter=args.max_iter, tol=args.tol,
    )
    ok = res.value <= args.credit + 1e-12
    payload = res.to_json()
    payload["credit"] = args.credit
    return _report(args, payload, "ok" if ok else "error")


def cmd_suite(args) -> int:
    lines = []
    ok = acceptance.run_all(emit=lambda s: lines.append(s))
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "status": "ok" if ok else "error",
                          "criteria": lines}, sort_keys=True))
    else:
        for line in lines:
            print(line)
        print("suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


_non_negative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction, got {text!r}")


def _non_negative_float(text: str, finite: bool = False) -> float:
    try:
        if float(text) >= 0 and not (finite and float(text) == float("inf")):  # NaN: no
            return float(text)
    except ValueError:
        pass
    what = "a finite number" if finite else "a number"
    raise argparse.ArgumentTypeError(f"expected {what} >= 0, got {text!r}")


# each subcommand takes only the shared options that it reads
_OPTIONS = {
    "--format": dict(choices=("text", "json"), default="text"),
    "--fuel": dict(type=_non_negative_int, default=60),
    "--tol": dict(type=_non_negative_float, default=1e-6),
    "--max-iter": dict(type=_non_negative_int, default=64),
    "--enums": dict(type=str, default=None),
    "--seed": dict(type=int, default=0),
}
_EVALUATING = ("--format", "--fuel", "--tol", "--enums")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="qlog", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, *options):
        sp = sub.add_parser(name)
        for flag in options:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(fn=fn)
        return sp

    sp = command("check", cmd_check, "--format")
    sp.add_argument("files", nargs="+")

    sp = command("eval", cmd_eval, *_EVALUATING)
    sp.add_argument("file")
    sp.add_argument("--def", dest="def_name", required=True)

    sp = command("distance", cmd_distance, *_EVALUATING)
    sp.add_argument("file")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--proc", action="store_true")
    sp.add_argument("--bisim", action="store_true")

    sp = command("prove", cmd_prove, "--format")
    sp.add_argument("file")

    sp = command("judge", cmd_judge, *_EVALUATING, "--seed")
    sp.add_argument("file")
    sp.add_argument("--envs", type=_positive_int, default=20)

    sp = command("casestudy", cmd_casestudy, *_EVALUATING, "--seed")
    sp.add_argument("name", choices=(
        "markov", "coin", "td", "hypercube", "hoare-ast", "prp"))
    sp.add_argument("--c", type=_fraction, default="1/2")
    sp.add_argument("--eps", type=_fraction, default="1/4")
    sp.add_argument("--alpha", type=_fraction, default="1/2")
    sp.add_argument("--gamma", type=_fraction, default="1/2")
    sp.add_argument("--n", type=_positive_int, default=3)
    sp.add_argument("--l", type=_positive_int, default=3)

    sp = command("hoare", cmd_hoare, "--format", "--tol", "--max-iter")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--pre", required=True)
    sp.add_argument("--post", required=True)
    sp.add_argument("--mode", choices=("eq", "leq"), default="eq")
    sp.add_argument("--stores", default=None)
    # finite: the credit is echoed into the report, where inf is not JSON
    sp.add_argument(
        "--credit", type=lambda t: _non_negative_float(t, finite=True), default=0.0
    )

    command("suite", cmd_suite, "--format")

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    # OSError: a missing or unreadable file, or a directory given as one
    except (InputError, QlogSyntaxError, TypeCheckError, EvalError, ProcessError,
            ImpError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
