"""The derivation checker against a golden record of its earlier verdicts.

Every node of every corpus derivation is mutated one way at a time: its
rule renamed to each other rule, a premise dropped or duplicated, each
param replaced by one of ``VALUES`` or deleted, its context extended,
shrunk or retyped, its hypotheses cut, extended or reversed, its goal set
to ``ff``.  ``checker_parity.json.gz`` holds, per case, the report (or the
name of the exception raised) of the checker as it was at commit 19c6468,
before ``logic.RULES`` became one table of premise binders; running this
file as a script at that commit writes it.

Only these differences are allowed:

* ``NEWLY_REJECTED``: the base premise of ``ind-nat`` had no context check;
* a case that raised now ends as a rejection or as an ``InputError``;
* a rejection may report a different first message at the same node path
  and rule, if the new message is one of ``RESTATED``: the premise
  contexts are now checked before the rule's own conditions, the
  binders' types and hypothesis positions are checked in one place each,
  and a missing param reads ``missing param <key>``.

No case may move from rejected to accepted.
"""

import copy
import gzip
import json
import os
import re
import sys

from conftest import corpus
from qlog.logic import RULES, check_derivation, derivation_from_json, load_source
from qlog.typecheck import Checker

DERIVS = corpus("derivs")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "checker_parity.json.gz")
VALUES = ["0", "1", "2", "1/2", "inf", "x", "x == x", "Nat", "3"]
NEWLY_REJECTED = {
    "33_ind_nat.json root.0 delta+",
    "33_ind_nat.json root.0 delta-",
    "33_ind_nat.json root.0 delta~",
}
_WHERE = re.compile(r"(\S+ \[[^\]]*\]): (.*)")
RESTATED = re.compile(
    r"premise context differs from conclusion context$"
    r"|premise context must extend the conclusion's by \d$"
    r"|bound variable \S+ has type .*, wanted .*"
    r"|position out of range$"
    r"|missing param \S+$")


def _nodes(node, path="root"):
    yield path, node
    for i, c in enumerate(node.get("children", [])):
        yield from _nodes(c, f"{path}.{i}")


def _at(root, path):
    for i in path.split(".")[1:]:
        root = root["children"][int(i)]
    return root


def _mutations(node):
    """(label, edit) pairs; each edit changes a copy of ``node`` in place."""
    out = [(f"rule={r}", lambda n, r=r: n.update(rule=r))
           for r in sorted(RULES) if r != node["rule"]]
    for i in range(len(node.get("children", []))):
        out.append((f"drop{i}", lambda n, i=i: n["children"].pop(i)))
        out.append((f"dup{i}", lambda n, i=i: n["children"].insert(i, n["children"][i])))
    for key in sorted(node.get("params", {})):
        for v in VALUES:
            out.append((f"{key}={v}", lambda n, k=key, v=v: n["params"].update({k: v})))
        out.append((f"{key}=", lambda n, k=key: n["params"].pop(k)))
    j = node["judgment"]
    out.append(("delta+", lambda n: n["judgment"]["delta"].append(["junk", "Unit"])))
    if j.get("delta"):
        out.append(("delta-", lambda n: n["judgment"]["delta"].pop()))
        out.append(("delta~", lambda n: n["judgment"]["delta"][-1].__setitem__(
            1, "Dist " + n["judgment"]["delta"][-1][1])))
    if j.get("hyps"):
        out.append(("hyps-", lambda n: n["judgment"]["hyps"].pop()))
    out.append(("hyps+", lambda n: n["judgment"].setdefault("hyps", []).append("tt")))
    if len(j.get("hyps", [])) > 1:
        out.append(("hyps~", lambda n: n["judgment"]["hyps"].reverse()))
    out.append(("goal=ff", lambda n: n["judgment"].update(goal="ff")))
    return out


def _outcome(obj, qfile):
    try:
        d = derivation_from_json(obj, qfile)
        return check_derivation(Checker(qfile.alphabets if qfile else {}), d, qfile).to_json()
    except Exception as e:  # the record keeps which exception escaped
        return type(e).__name__


def cases():
    """Yields (case id, outcome) for every mutation of every corpus node."""
    for fname in sorted(os.listdir(DERIVS)):
        with open(os.path.join(DERIVS, fname)) as fh:
            top = json.load(fh)
        qfile = load_source(top, DERIVS)
        root = top["derivation"]
        for path, node in list(_nodes(root)):
            for label, edit in _mutations(node):
                mutant = copy.deepcopy(root)
                edit(_at(mutant, path))
                yield f"{fname} {path} {label}", _outcome(mutant, qfile)


def _allowed(case, old, new):
    if old == new:
        return True
    if isinstance(old, str):  # raised before: now a verdict or a malformed-input error
        return new == "InputError" or (isinstance(new, dict) and new["status"] == "error")
    if not isinstance(new, dict) or new["status"] != "error":
        return False
    if old["status"] == "ok":
        return case in NEWLY_REJECTED
    same = {k: v for k, v in old.items() if k != "violations"} == {
        k: v for k, v in new.items() if k != "violations"}
    where_old = _WHERE.match(old["violations"][0])
    where_new = _WHERE.match(new["violations"][0])
    return (same and bool(where_old) and bool(where_new)
            and where_old.group(1) == where_new.group(1)
            and bool(RESTATED.match(where_new.group(2))))


def test_checker_matches_golden_up_to_declared_differences():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = json.load(fh)
    now = dict(cases())
    assert set(now) == set(golden)
    bad = [(c, golden[c], now[c]) for c in sorted(now) if not _allowed(c, golden[c], now[c])]
    assert bad == []
    accepted_before = {c for c, v in golden.items() if isinstance(v, dict) and v["status"] == "ok"}
    accepted_now = {c for c, v in now.items() if isinstance(v, dict) and v["status"] == "ok"}
    assert accepted_now == accepted_before - NEWLY_REJECTED


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    record = dict(cases())
    with gzip.GzipFile(GOLDEN, "wb", mtime=0) as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
    print(f"{len(record)} cases", file=sys.stderr)
