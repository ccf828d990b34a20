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
import re
import sys
from fractions import Fraction

from . import acceptance
from .evaluator import EnumSpec, EvalConfig, Evaluator
from .grades import Grade
from .hoare import triple_value
from .hypercube import hypercube_contraction_check
from .imp import ImpError, Store, parse_imp
from .logic import check_derivation, check_semantic, judgment_from_json, load_derivation_file
from .parser import QlogSyntaxError, parse_file
from .processes import ProcessError, behavioral_distance, bisimilarity_distance
from .sampling import sample_envs
from .td import random_mdp, random_vector, td_contraction_check
from .terms import TProc
from .typecheck import Checker, TypeCheckError
from .values import Approx, value_to_json

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


def _load_qlog(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_file(fh.read())


def _evaluator(args, alphabets) -> Evaluator:
    enums = EnumSpec()
    if args.enums:
        with open(args.enums) as fh:
            enums = EnumSpec(json.load(fh))
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


def _eval_def(args, name_attr="def_name"):
    qfile = _load_qlog(args.file)
    ck = Checker(qfile.alphabets)
    ev = _evaluator(args, qfile.alphabets)
    env = {nm: Approx(ev.canonical_seed(ty)) for nm, _, ty in qfile.ctx.bindings}
    values = {}
    for nm, d in qfile.defs.items():
        if d.declared_type is not None:
            ck.check(qfile.ctx, d.term, d.declared_type)
        else:
            ck.synthesize(qfile.ctx.types(), d.term)
        values[nm] = ev.eval(env, d.term)
    return qfile, ck, ev, values


def cmd_eval(args) -> int:
    qfile, ck, ev, values = _eval_def(args)
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
    qfile, ck, ev, values = _eval_def(args)
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
            ty, _ = ck.synthesize(qfile.ctx.types(), qfile.defs[args.left].term)
        d = ev.distance_at(ty, lv.value, rv.value)
        d = d.widen(lv.radius + rv.radius)
    payload = {"left": args.left, "right": args.right,
               "value": d.value, "radius": d.radius}
    if d.sided:
        payload["sided"] = d.sided
    return _report(args, payload, "ok")


def cmd_prove(args) -> int:
    with open(args.file) as fh:
        qfile, deriv = load_derivation_file(
            fh.read(), base_dir=os.path.dirname(os.path.abspath(args.file))
        )
    ck = Checker(qfile.alphabets if qfile else {})
    rep = check_derivation(ck, deriv, qfile)
    payload = rep.to_json()
    return _report(args, payload, "ok" if rep.ok else "error")


def cmd_judge(args) -> int:
    with open(args.file) as fh:
        obj = json.load(fh)
    qfile = None
    if "source" in obj:
        qfile = parse_file(obj["source"])
    elif "source_file" in obj:
        base = os.path.dirname(os.path.abspath(args.file))
        with open(os.path.join(base, obj["source_file"])) as fh:
            qfile = parse_file(fh.read())
    jobj = obj.get("judgment") or obj.get("derivation", {}).get("judgment")
    if jobj is None:
        print("file carries no judgment", file=sys.stderr)
        return 2
    judgment = judgment_from_json(jobj, qfile)
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
        ck = Checker(qfile.alphabets)
        ev = _evaluator(args, qfile.alphabets)
        vals = {}
        for nm, d in qfile.defs.items():
            ck.check(qfile.ctx, d.term, d.declared_type)
            vals[nm] = ev.eval({}, d.term)
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
        rep = td_contraction_check(mdp, v, w, args.n, tol=args.tol)
        return _report(args, rep.to_json(), "ok" if rep.ok else "error")
    if name == "hypercube":
        rep = hypercube_contraction_check(args.n)
        return _report(args, rep.to_json(), "ok" if rep.ok else "error")
    if name == "hoare-ast":
        _, ok, detail = acceptance.check_hoare_termination()
        return _report(args, {"case": name, "detail": detail},
                       "ok" if ok else "error")
    if name == "prp":
        from .hoare import prp_prf_check

        if args.l > args.n:
            return _usage_error(
                "casestudy prp: need array length --l <= value range --n"
            )
        rep = prp_prf_check(args.l, args.n)
        return _report(args, rep.to_json(), "ok" if rep.ok else "error")
    print(f"unknown case study {name}", file=sys.stderr)
    return 2


# -- hoare triples on .imp programs ------------------------------------------

_PRED_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<sv>[st])\.(?P<loc>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|<=|&&|\|\||tt|ff|\(|\)))"
)


def parse_store_pred(src: str):
    """Tiny predicate language over store pairs:
    atoms `s.loc`, `t.loc`, integers; comparisons ==, <=; && and ||;
    constants tt/ff.  `s` is the left store, `t` the right; an array
    name compares whole arrays."""
    toks = []
    pos = 0
    while pos < len(src):
        m = _PRED_TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip():
                raise ValueError(f"bad predicate near {src[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            toks.append(("num", int(m.group("num"))))
        elif m.group("sv"):
            toks.append(("read", (m.group("sv"), m.group("loc"))))
        else:
            toks.append(("op", m.group("op")))

    def parse_or(i):
        lhs, i = parse_and(i)
        while i < len(toks) and toks[i] == ("op", "||"):
            rhs, i = parse_and(i + 1)
            l = lhs
            lhs = (lambda a, b, l=l, r=rhs: min(l(a, b), r(a, b)))
        return lhs, i

    def parse_and(i):
        lhs, i = parse_cmp(i)
        while i < len(toks) and toks[i] == ("op", "&&"):
            rhs, i = parse_cmp(i + 1)
            l = lhs
            lhs = (lambda a, b, l=l, r=rhs: max(l(a, b), r(a, b)))
        return lhs, i

    def tok(i):
        if i >= len(toks):
            raise ValueError("predicate ends too early")
        return toks[i]

    def atom(i):
        kind, val = tok(i)
        if kind == "num":
            return (lambda a, b, v=val: v), i + 1
        if kind == "read":
            side, loc = val

            def read(a, b, side=side, loc=loc):
                store = a if side == "s" else b
                if loc in store.slots:
                    return store.get(loc)
                arr = store.array(loc)
                if not arr:
                    raise ValueError(
                        f"{side}.{loc} is neither a location nor an array of the store"
                    )
                return arr

            return read, i + 1
        if val == "(":
            return group(i)
        raise ValueError(f"bad predicate atom {val!r}")

    def parse_cmp(i):
        kind, val = tok(i)
        if kind == "op" and val == "tt":
            return (lambda a, b: 0.0), i + 1
        if kind == "op" and val == "ff":
            return (lambda a, b: 1.0), i + 1
        if kind == "op" and val == "(":
            return group(i)
        lhs, i = atom(i)
        op = tok(i)[1]
        rhs, i = atom(i + 1)
        if op == "==":
            return (lambda a, b, l=lhs, r=rhs: 0.0 if l(a, b) == r(a, b) else 1.0), i
        if op == "<=":
            return (lambda a, b, l=lhs, r=rhs: 0.0 if l(a, b) <= r(a, b) else 1.0), i
        raise ValueError(f"bad comparison {op!r}")

    def group(i):
        # a parenthesised boolean group
        f, i = parse_or(i + 1)
        if tok(i) != ("op", ")"):
            raise ValueError("predicate is missing a ')'")
        return f, i + 1

    f, i = parse_or(0)
    if i != len(toks):
        raise ValueError("trailing predicate input")
    return f


def _store_from_json(prog, obj: dict) -> Store:
    if not isinstance(obj, dict):
        raise ValueError(f"a store is a JSON object, got {obj!r}")
    s = prog.initial_store()
    for k, v in obj.items():
        if isinstance(v, list):
            for i, x in enumerate(v):
                s = s.set((k, i), int(x))
        else:
            s = s.set(k, int(v))
    return s


def cmd_hoare(args) -> int:
    progs = []
    for path in (args.left, args.right):
        with open(path) as fh:
            try:
                progs.append(parse_imp(fh.read()))
            except ImpError as e:
                return _usage_error(f"{path}: {e}")
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
        except (ValueError, TypeError) as e:
            return _usage_error(f"{flag}: {e}")
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


def _non_negative_float(text: str) -> float:
    try:
        if float(text) >= 0:  # False for NaN
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--fuel", type=_non_negative_int, default=60)
    common.add_argument("--tol", type=_non_negative_float, default=1e-6)
    common.add_argument(
        "--max-iter", dest="max_iter", type=_non_negative_int, default=64
    )
    common.add_argument("--enums", type=str, default=None)
    common.add_argument("--seed", type=int, default=0)

    p = argparse.ArgumentParser(prog="qlog", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", parents=[common])
    sp.add_argument("files", nargs="+")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("eval", parents=[common])
    sp.add_argument("file")
    sp.add_argument("--def", dest="def_name", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("distance", parents=[common])
    sp.add_argument("file")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--proc", action="store_true")
    sp.add_argument("--bisim", action="store_true")
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("prove", parents=[common])
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_prove)

    sp = sub.add_parser("judge", parents=[common])
    sp.add_argument("file")
    sp.add_argument("--envs", type=_positive_int, default=20)
    sp.set_defaults(fn=cmd_judge)

    sp = sub.add_parser("casestudy", parents=[common])
    sp.add_argument("name", choices=(
        "markov", "coin", "td", "hypercube", "hoare-ast", "prp"))
    sp.add_argument("--c", type=_fraction, default="1/2")
    sp.add_argument("--eps", type=_fraction, default="1/4")
    sp.add_argument("--alpha", type=_fraction, default="1/2")
    sp.add_argument("--gamma", type=_fraction, default="1/2")
    sp.add_argument("--n", type=_positive_int, default=3)
    sp.add_argument("--l", type=_non_negative_int, default=3)
    sp.set_defaults(fn=cmd_casestudy)

    sp = sub.add_parser("hoare", parents=[common])
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--pre", required=True)
    sp.add_argument("--post", required=True)
    sp.add_argument("--mode", choices=("eq", "leq"), default="eq")
    sp.add_argument("--stores", default=None)
    sp.add_argument("--credit", type=_non_negative_float, default=0.0)
    sp.set_defaults(fn=cmd_hoare)

    sp = sub.add_parser("suite", parents=[common])
    sp.set_defaults(fn=cmd_suite)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    # OSError: a missing or unreadable file, or a directory given as one
    except (QlogSyntaxError, TypeCheckError, ProcessError, ImpError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
