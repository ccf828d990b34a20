"""Command-line behaviour: exit codes, JSON reports, determinism."""

import functools
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import corpus
from qlog.cli import main, parse_store_pred
from qlog.imp import Store
from qlog.td import td_contraction_check


def run_cli(*argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_check_ok():
    code, out = run_cli("check", corpus("geo.qlog"), "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "qlog/1" and blob["status"] == "ok"


def test_check_rejects_mutant():
    code, out = run_cli(
        "check", corpus("mutants", "m01_fix_identity.qlog"), "--format", "json"
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["status"] == "error"
    assert blob["files"][0]["defs"][0]["error"]["rule"] == "fix"


def test_eval_geo():
    code, out = run_cli(
        "eval", corpus("geo.qlog"), "--def", "geo",
        "--fuel", "6", "--tol", "0", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["value"]["dist"]["support"][0] == {"v": 0, "w": 0.5}
    assert blob["radius"] == pytest.approx(2.0 ** -6)


def test_distance_processes():
    code, out = run_cli(
        "distance", corpus("markov.qlog"), "--left", "m", "--right", "n",
        "--proc", "--tol", "1e-4", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] <= 0.25 + 1e-4


def test_prove_and_judge():
    code, _ = run_cli("prove", corpus("derivs", "29_transitivity.json"))
    assert code == 0
    code, out = run_cli(
        "judge", corpus("derivs", "29_transitivity.json"),
        "--envs", "10", "--tol", "1e-3",
        "--enums", corpus("enums", "default.json"), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_judge_deterministic_bytes():
    args = (
        "judge", corpus("derivs", "30_congruence_mix.json"),
        "--envs", "8", "--seed", "7", "--tol", "1e-3",
        "--enums", corpus("enums", "default.json"), "--format", "json",
    )
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2


def test_casestudy_hypercube():
    code, out = run_cli("casestudy", "hypercube", "--n", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["worst_ratio"] <= 0.5 + 1e-9


def test_hoare_cli():
    code, out = run_cli(
        "hoare",
        "--left", corpus("imp", "as_termination.imp"),
        "--right", corpus("imp", "skip.imp"),
        "--pre", "tt", "--post", "tt", "--mode", "eq",
        "--max-iter", "10", "--credit", "0.001", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == pytest.approx(2.0 ** -10)


def test_distance_between_distributions(tmp_path):
    src = (
        "def a : Dist Nat = delta(0) (+ 1/2) delta(1)\n"
        "def b : Dist Nat = delta(0) (+ 1/4) delta(1)\n"
    )
    p = tmp_path / "two.qlog"
    p.write_text(src)
    code, out = run_cli(
        "distance", str(p), "--left", "a", "--right", "b", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25)


def test_usage_error_exit_2():
    code, _ = run_cli("eval", "no-such-file.qlog", "--def", "x")
    assert code == 2


def test_store_predicates():
    p = parse_store_pred("s.l == t.l && s.l <= 3")
    a = Store.of({"l": 2})
    b = Store.of({"l": 2})
    c = Store.of({"l": 5})
    assert p(a, b) == 0.0
    assert p(a, c) == 1.0
    assert parse_store_pred("tt")(a, c) == 0.0
    q = parse_store_pred("s.l == 2 || s.l == 5")
    assert q(a, b) == 0.0 and q(c, b) == 0.0
    assert parse_store_pred("s.l == 9 || s.l == 7")(a, b) == 1.0


def test_deep_nesting_exits_2_with_position(tmp_path, capsys):
    src = tmp_path / "deep.qlog"
    src.write_text("def x = " + "(" * 3000 + "zero" + ")" * 3000 + "\n")
    code, _ = run_cli("eval", str(src), "--def", "x")
    assert code == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and err.startswith(f"{src}:1:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, value",
    [("succ(" * 300 + "zero" + ")" * 300, 300), ("(" * 300 + "tt" + ")" * 300, 0.0)],
)
def test_300_levels_check_and_evaluate(tmp_path, body, value):
    assert sys.getrecursionlimit() == 1000
    src = tmp_path / "deep.qlog"
    src.write_text(f"def x = {body}\n")
    code, out = run_cli("check", str(src), "--format", "json")
    assert code == 0, out
    code, out = run_cli("eval", str(src), "--def", "x", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == value


@pytest.mark.parametrize(
    "body, message",
    [
        ("def x : Nat = 2000\n", "1:15: expression nested too deeply\n"),
        ("def x : Nat = " + "9" * 5000 + "\n", "1:15: expression nested too deeply\n"),
        ("def x = delta(0) (+ 1/" + "9" * 5000 + ") delta(1)\n",
         "1:23: number too long (5000 digits)\n"),
        ("def x = [0." + "9" * 5000 + "] tt\n", "1:12: number too long (5000 digits)\n"),
    ],
)
def test_long_numerals_are_positioned_usage_errors(tmp_path, capsys, body, message):
    src = tmp_path / "big.qlog"
    src.write_text(body)
    code, out = run_cli("check", str(src))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"{src}:{message}"


def test_zero_denominator_is_a_positioned_usage_error(tmp_path, capsys):
    src = tmp_path / "zero.qlog"
    src.write_text("def x = delta(0) (+ 1/0) delta(1)\n")
    code, out = run_cli("check", str(src))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"{src}:1:23: zero denominator\n"


@pytest.mark.parametrize(
    "body, pre, where",
    [
        ("locs l\nl := " + "7" * 5000 + "\n", "tt", "{left}:2:6"),
        ("array a[" + "7" * 5000 + "]\nskip\n", "tt", "{left}:1:9"),
        ("locs l\nskip\n", "s.l == " + "7" * 5000, "--pre:1:8"),
    ],
)
def test_long_imp_numerals_are_positioned_usage_errors(tmp_path, capsys, body, pre, where):
    left = tmp_path / "big.imp"
    left.write_text(body)
    code, out = run_cli("hoare", "--left", str(left), "--right", SKIP_IMP,
                        "--pre", pre, "--post", "tt")
    assert (code, out) == (2, "")
    where = where.format(left=left)
    assert capsys.readouterr().err == f"{where}: number too long (5000 digits)\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--fuel", "-5"),
        ("--fuel", "x"),
        ("--tol", "nan"),
        ("--tol", "-0.001"),
    ],
)
def test_nonsense_parameters_rejected(flags, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("eval", corpus("geo.qlog"), "--def", "geo", *flags)
    assert e.value.code == 2
    assert f"argument {flags[0]}" in capsys.readouterr().err


def test_jobs_option_removed(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("eval", corpus("geo.qlog"), "--def", "geo", "--jobs", "2")
    assert e.value.code == 2


def test_boundary_parameters_accepted():
    code, out = run_cli(
        "eval", corpus("geo.qlog"), "--def", "geo", "--fuel", "0", "--tol", "0",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["status"] == "ok"


@pytest.mark.parametrize("envs", ["0", "-3", "x"])
def test_judge_envs_must_be_positive(envs, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("judge", corpus("derivs", "01_true.json"), "--envs", envs)
    assert e.value.code == 2
    assert "argument --envs" in capsys.readouterr().err


def test_judge_one_env_accepted():
    code, out = run_cli(
        "judge", corpus("derivs", "01_true.json"), "--envs", "1", "--format", "json"
    )
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_hoare_max_iter_must_be_non_negative(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli(
            "hoare", "--left", corpus("imp", "skip.imp"),
            "--right", corpus("imp", "skip.imp"),
            "--pre", "tt", "--post", "tt", "--max-iter", "-1",
        )
    assert e.value.code == 2
    assert "argument --max-iter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, where",
    [
        (("prp", "--n", "0"), "argument --n"),
        (("hypercube", "--n", "0"), "argument --n"),
        (("td", "--n", "-1"), "argument --n"),
        (("prp", "--l", "-1"), "argument --l"),
        (("td", "--alpha", "abc"), "argument --alpha"),
        (("td", "--gamma", "1/0"), "argument --gamma"),
        (("coin", "--c", "abc"), "argument --c"),
        (("prp", "--l", "0"), "argument --l"),
    ],
)
def test_casestudy_parameters_rejected_by_parser(flags, where, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("casestudy", *flags)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def test_python_m_qlog_runs_from_a_checkout():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "qlog", "casestudy", "prp", "--l", "0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --l" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags, message",
    [
        (("prp", "--n", "2", "--l", "3"), "need array length"),
        (("td", "--alpha", "2", "--gamma", "3"), "need 0 <= alpha < 1"),
        (("td", "--alpha", "1"), "need 0 <= alpha < 1"),
        (("td", "--gamma", "0"), "need 0 <= alpha < 1"),
        # coin parameters are checked before the source is generated, so
        # no error points into text the user never wrote
        (("coin", "--c", "2"), "--c must lie in (0, 1), got 2"),
        (("coin", "--c", "0"), "--c must lie in (0, 1), got 0"),
        (("coin", "--c", "1"), "--c must lie in (0, 1), got 1"),
        (("coin", "--eps", "2"), "--eps must lie in (-1/2, 1/2), got 2"),
        (("coin", "--eps", "1/2"), "--eps must lie in (-1/2, 1/2), got 1/2"),
        (("coin", "--eps=-1/2"), "--eps must lie in (-1/2, 1/2), got -1/2"),
    ],
)
def test_casestudy_parameters_rejected(flags, message, capsys):
    code, out = run_cli("casestudy", *flags)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not re.search(r"\d+:\d+:", err)  # no line:column position


def test_casestudy_coin_negative_eps_uses_mirrored_closed_form():
    code, out = run_cli(
        "casestudy", "coin", "--eps=-1/10", "--tol", "1e-4", "--format", "json"
    )
    blob = json.loads(out)
    assert code == 0 and blob["status"] == "ok"
    assert blob["closed_form"] == 1 / 11  # c|eps| / (1 - c + c|eps|) at c = 1/2


def test_casestudy_td_keeps_valid_alpha_gamma():
    code, out = run_cli(
        "casestudy", "td", "--alpha", "3/10", "--gamma", "4/5", "--n", "2",
        "--format", "json",
    )
    blob = json.loads(out)
    assert code == 0 and blob["status"] == "ok"
    assert blob["k"] == float(Fraction(47, 50))  # 1 - alpha + gamma * alpha


def test_casestudy_td_support_blow_up_is_a_usage_error(monkeypatch, capsys):
    capped = functools.partial(td_contraction_check, support_cap=20)
    monkeypatch.setattr("qlog.cli.td_contraction_check", capped)
    code, out = run_cli("casestudy", "td", "--n", "6", "--seed", "2")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert re.fullmatch(r"casestudy td: support blow-up: \d+ pairs at step \d\n", err)


def test_casestudy_td_rejects_infinite_tol(capsys):
    # --tol inf would let every row pass whatever was measured
    code, out = run_cli("casestudy", "td", "--n", "2", "--tol", "inf")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == "casestudy td: tol must be a finite number >= 0, got inf\n"


def test_bisimilarity_at_discount_one_is_a_usage_error(capsys):
    code, out = run_cli(
        "distance", corpus("markov.qlog"), "--left", "m", "--right", "n",
        "--proc", "--bisim",
    )
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "bisimilarity distance needs discount < 1, got 1\n"


def test_bisim_without_proc_is_a_usage_error(capsys):
    code, out = run_cli(
        "distance", corpus("markov.qlog"), "--left", "m", "--right", "n", "--bisim"
    )
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "--bisim needs --proc\n"


SKIP_IMP = corpus("imp", "skip.imp")


@pytest.mark.parametrize(
    "body, pre, stores, where, message",
    [
        ("locs l\nl := ;\n", "tt", None, "bad.imp", "expected an expression"),
        ("locs l\nm := 3\n", "tt", None, "bad.imp", "undeclared location m"),
        ("locs l\narray a[x]\nskip\n", "tt", None, "bad.imp",
         "array size must be a number, got 'x'"),
        ("locs l\narray a[2]\na[5] := 1\n", "tt", None, "a[5]",
         "out of bounds (size 2)"),
        ("locs l\nskip\n", "s.l ==", None, "--pre", "predicate ends too early"),
        ("locs l\nskip\n", "(s.l == 0", None, "--pre", "predicate ends too early"),
        ("locs l\nskip\n", "(s.l == 0 tt", None, "--pre", "missing a ')'"),
        ("locs l\nskip\n", "tt", '{"pairs": [[{"zz": 0}, {"l": 0}]]}',
         "stores.json", "undeclared location zz"),
        ("locs l\nskip\n", "tt", '{"pairs": [[1, {"l": 0}]]}',
         "stores.json", "a store is a JSON object"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n", "tt",
         '{"pairs": [[{"t": -1}, {}]]}', "stores.json", "t must be an integer >= 0, got -1"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n", "tt",
         '{"pairs": [[{"i": -1, "t": 0}, {}]]}', "stores.json",
         "i must be an integer >= 0, got -1"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n", "tt",
         '{"pairs": [[{"i": 1.7, "t": true}, {}]]}', "stores.json",
         "i must be an integer >= 0, got 1.7"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n", "tt",
         '{"pairs": [[{"t": true}, {}]]}', "stores.json", "t must be an integer >= 0, got true"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n", "tt",
         '{"pairs": [[{"a": [0, -2]}, {}]]}', "stores.json",
         "a[1] must be an integer >= 0, got -2"),
        ("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n", "tt",
         '{"pairs": [[{"a": ["0"]}, {}]]}', "stores.json",
         'a[0] must be an integer >= 0, got "0"'),
    ],
)
def test_hoare_malformed_input_is_a_usage_error(
    tmp_path, capsys, body, pre, stores, where, message
):
    left = tmp_path / "bad.imp"
    left.write_text(body)
    argv = ["hoare", "--left", str(left), "--right", SKIP_IMP,
            "--pre", pre, "--post", "tt"]
    if stores is not None:
        (tmp_path / "stores.json").write_text(stores)
        argv += ["--stores", str(tmp_path / "stores.json")]
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert where in err and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_hoare_stores_take_naturals_in_locations_and_arrays(tmp_path):
    prog = tmp_path / "scan.imp"
    prog.write_text("locs i t v\narray a[2]\nnth_unused(a, i, t, v)\n")
    (tmp_path / "stores.json").write_text(
        '{"pairs": [[{"i": 1, "t": 0, "a": [0, 5]}, {"i": 1, "t": 0, "a": [0, 5]}]]}'
    )
    code, out = run_cli(
        "hoare", "--left", str(prog), "--right", str(prog), "--pre", "tt",
        "--post", "s.v == t.v", "--stores", str(tmp_path / "stores.json"),
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["value"] == 0.0


ENUMS_RULE = (
    'expected {"mode": "finite", "bound": <integer 0 to 1000000, needed for Nat>} or '
    '{"mode": "samples", "terms": [<string>, ...]}'
)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"Nat": 3}', '"Nat": ' + ENUMS_RULE),
        ("[1, 2]", "an enumeration file is a JSON object"),
        ('{"Nat": {"mode": "finite", "bound": "x"}}', '"Nat": ' + ENUMS_RULE),
        ('{"Nat": {"mode": "finite", "bound": -1}}', '"Nat": ' + ENUMS_RULE),
        ('{"Nat": {"mode": "finite", "bound": true}}', '"Nat": ' + ENUMS_RULE),
        # past the ceiling: 10^20 overflowed range() with a traceback
        ('{"Nat": {"mode": "finite", "bound": 100000000000000000000}}', '"Nat": ' + ENUMS_RULE),
        ('{"Nat": {"mode": "finite", "bound": 1000001}}', '"Nat": ' + ENUMS_RULE),
        ('{"Nat": {"mode": "finite"}}', '"Nat": ' + ENUMS_RULE),
        ('{"Nat": {"mode": "all", "bound": 3}}', '"Nat": ' + ENUMS_RULE),
        ('{"Unit": {"mode": "finite", "bound": -1}}', '"Unit": ' + ENUMS_RULE),
        ('{"Prop": {"mode": "samples", "terms": null}}', '"Prop": ' + ENUMS_RULE),
        ('{"Prop": {"mode": "samples", "terms": "tt"}}', '"Prop": ' + ENUMS_RULE),
        ('{"Prop": {"mode": "samples", "terms": [1]}}', '"Prop": ' + ENUMS_RULE),
        ("{", "not JSON: Expecting property name enclosed in double quotes"),
        ('{"Nat": {"mode": "samples", "terms": ["tt", "delta("]}}',
         '"Nat": samples term "delta(":1:6: expected a term'),
    ],
)
@pytest.mark.parametrize("command", ["judge", "eval"])
def test_malformed_enums_file_is_a_usage_error(tmp_path, capsys, command, text, message):
    enums = tmp_path / "enums.json"
    enums.write_text(text)
    if command == "judge":
        argv = ["judge", corpus("derivs", "26_forall_intro.json"), "--envs", "2"]
    else:
        argv = ["eval", corpus("geo.qlog"), "--def", "geo"]
    code, out = run_cli(*argv, "--enums", str(enums))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"{enums}: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_enums_file_bound_only_for_nat_and_terms_optional(tmp_path):
    # a finite entry without a bound enumerates a structurally finite type,
    # and a samples entry without terms samples nothing: both still load
    enums = tmp_path / "enums.json"
    enums.write_text('{"Nat": {"mode": "finite", "bound": 2}, "Unit": {"mode": "finite"},'
                     ' "Dist Nat": {"mode": "samples"}}')
    code, out = run_cli("judge", corpus("derivs", "26_forall_intro.json"), "--envs", "2",
                        "--enums", str(enums), "--format", "json")
    assert code == 0 and json.loads(out)["status"] == "ok"


@pytest.mark.parametrize(
    "term, message",
    [
        ("tt", "samples for Nat: term 'tt' has type Prop\n"),
        ("x", "samples for Nat: term 'x': 1:1: [var] unbound variable x\n"),
    ],
)
def test_enums_samples_term_of_another_type_is_refused(tmp_path, capsys, term, message):
    enums = tmp_path / "enums.json"
    enums.write_text(json.dumps({"Nat": {"mode": "samples", "terms": [term]}}))
    code, out = run_cli("judge", corpus("derivs", "26_forall_intro.json"), "--envs", "2",
                        "--enums", str(enums))
    assert (code, out, capsys.readouterr().err) == (2, "", message)


def test_imp_parse_error_reads_file_line_col(tmp_path, capsys):
    left = tmp_path / "bad.imp"
    left.write_text("locs l\nl := ;\n")
    code, out = run_cli("hoare", "--left", str(left), "--right", SKIP_IMP,
                        "--pre", "tt", "--post", "tt")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"{left}:2:6: expected an expression, got ';'\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("locs l\nm := 3\n", "2:1: undeclared location m"),
        ("locs l\narray a[2]\nl := 1;\nb[0] := l\n", "4:1: undeclared array b"),
    ],
)
def test_imp_undeclared_name_reads_file_line_col(tmp_path, capsys, body, message):
    left = tmp_path / "bad.imp"
    left.write_text(body)
    code, out = run_cli("hoare", "--left", str(left), "--right", SKIP_IMP,
                        "--pre", "tt", "--post", "tt")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"{left}:{message}\n"


def test_imp_type_error_reads_file_line_col(tmp_path, capsys):
    left = tmp_path / "bad.imp"
    left.write_text("locs i\nwhile i + 1 { i := 0 }\n")
    code, out = run_cli("hoare", "--left", str(left), "--right", SKIP_IMP,
                        "--pre", "tt", "--post", "tt")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"{left}:2:7: guard must be boolean\n"


@pytest.mark.parametrize(
    "pre, post, message",
    [
        ("s.zz == 0", "tt", "--pre: s.zz is neither a location nor an array"),
        ("tt", "t.zz == 0", "--post: t.zz is neither a location nor an array"),
    ],
)
def test_hoare_undeclared_predicate_location_is_rejected(pre, post, message, capsys):
    # s.zz used to read as the empty array, so the triple held vacuously
    code, out = run_cli(
        "hoare", "--left", SKIP_IMP, "--right", SKIP_IMP,
        "--pre", pre, "--post", post,
    )
    assert code == 2 and out == ""
    assert capsys.readouterr().err == message + " of the store\n"


@pytest.mark.parametrize(
    "pre, post, message",
    [
        ("s.l = 3", "tt", "--pre:1:5: bad character '='"),
        ("s.l < 3", "tt", "--pre:1:5: bad character '<'"),
        ("s.l == 3 && (t.l <= 2", "tt",
         "--pre:1:22: predicate ends too early: missing a ')'"),
        ("tt", "t.l == 0)", "--post:1:9: trailing input ')'"),
    ],
)
def test_hoare_predicate_parse_error_reads_flag_line_col(pre, post, message, capsys):
    code, out = run_cli(
        "hoare", "--left", SKIP_IMP, "--right", SKIP_IMP,
        "--pre", pre, "--post", post,
    )
    assert code == 2 and out == ""
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("credit", ["nan", "-1", "x", "inf"])
def test_hoare_credit_must_be_a_non_negative_number(credit, capsys):
    # NaN and inf used to be echoed as "credit": NaN or Infinity, not JSON
    with pytest.raises(SystemExit) as e:
        run_cli(
            "hoare", "--left", SKIP_IMP, "--right", SKIP_IMP,
            "--pre", "tt", "--post", "tt", "--credit", credit, "--format", "json",
        )
    assert e.value.code == 2
    assert "argument --credit" in capsys.readouterr().err


def test_hoare_tol_inf_stays_valid():
    # --tol inf stops iteration at once; it is not echoed into the report
    code, out = run_cli(
        "hoare", "--left", SKIP_IMP, "--right", SKIP_IMP, "--pre", "tt",
        "--post", "tt", "--tol", "inf", "--format", "json",
    )
    assert code == 0 and json.loads(out)["status"] == "ok"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", corpus()),
        ("hoare", "--left", corpus("imp"), "--right", SKIP_IMP,
         "--pre", "tt", "--post", "tt"),
    ],
)
def test_directory_argument_is_a_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "Is a directory" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("source", ["def a : Nat = 1\n", "def a = 1\n"])
def test_distance_proc_needs_process_types(tmp_path, capsys, source):
    src = tmp_path / "nat.qlog"
    src.write_text(source)
    code, out = run_cli("distance", str(src), "--left", "a", "--right", "a", "--proc")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "--proc needs process-typed definitions\n"


def test_qlog_syntax_error_names_its_file(tmp_path, capsys):
    src = tmp_path / "z.qlog"
    src.write_text("def x = delta(0) (+ 1/0) delta(1)\n")
    code, out = run_cli("check", corpus("geo.qlog"), str(src))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"{src}:1:23: zero denominator\n"


def _proof_file(tmp_path, fname, edit):
    """A copy of a corpus derivation, its root node changed by ``edit``."""
    with open(corpus("derivs", fname)) as fh:
        obj = json.load(fh)
    if "source_file" in obj:
        obj["source_file"] = corpus("derivs", obj["source_file"])
    edit(obj["derivation"])
    path = tmp_path / fname
    path.write_text(json.dumps(obj))
    return path


def _set_param(key, value, at=()):
    def edit(node):
        for i in at:
            node = node["children"][i]
        node["params"][key] = value
    return edit


@pytest.mark.parametrize(
    "fname, edit, message",
    [
        ("04_exchange.json", _set_param("at", "x"),
         "root [ex] at: invalid literal for int() with base 10: 'x'"),
        ("11_markov_quarter_bound.json", _set_param("unfold_fix", "many", (0, 0)),
         "root.0.0 [eq-e] unfold_fix: invalid literal for int() with base 10: 'many'"),
        ("05_promotion.json", _set_param("r", "abc"),
         "root [pr] r: Invalid literal for Fraction: 'abc'"),
        ("34_ind_dist.json", _set_param("p", "half"),
         "root [ind-dist] p: Invalid literal for Fraction: 'half'"),
        ("34_ind_dist.json", _set_param("p", "1/0"), "root [ind-dist] p: zero denominator"),
        ("33_ind_nat.json", lambda n: n["children"][0].pop("judgment"),
         "root.0 [eq-i]: missing 'judgment'"),
        ("33_ind_nat.json", _set_param("phi", "v =="),
         "root [ind-nat] phi:1:3: expected a term"),
        ("01_true.json", lambda n: n.update(rule=["tt"]),
         "root: 'rule' is not a string"),
        ("01_true.json", lambda n: n.update(params=0),
         "root [true]: 'params' is not an object"),
        ("01_true.json", lambda n: n.update(children=5),
         "root [true]: 'children' is not a list"),
        ("33_ind_nat.json", lambda n: n["children"].__setitem__(0, 5),
         "root.0: not an object"),
        ("01_true.json", lambda n: n["judgment"].update(hyps=5),
         "root [true] judgment: 'hyps' is not a list"),
    ],
)
def test_malformed_proof_file_is_a_usage_error(tmp_path, capsys, fname, edit, message):
    path = _proof_file(tmp_path, fname, edit)
    code, out = run_cli("prove", str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"{path}: {message}\n"


@pytest.mark.parametrize(
    "judgment, message",
    [
        ({"hyps": 5, "goal": "tt"}, "'hyps' is not a list"),
        ({"hyps": ["tt", 5], "goal": "tt"}, "'hyps' is not a list of strings"),
        ({"delta": "x", "goal": "tt"}, "'delta' is not a list"),
        ({"delta": [["x"]], "goal": "tt"},
         "'delta' entry is not a [name, type] pair of strings"),
        ({"goal": 3}, "'goal' is not a string"),
        ({"hyps": []}, "missing 'goal'"),
        (5, "not an object"),
        ([], "not an object"),
        ({"delta": [["x", "Nat"], ["p", "Dist (Nat & Foo)"]], "goal": "tt"},
         "'delta' variable p has unknown type Foo"),
        ({"delta": [["p", "Proc[1/2] Foo"]], "goal": "tt"},
         "'delta' variable p has unknown type Foo"),
    ],
)
def test_malformed_judgment_is_a_usage_error(tmp_path, capsys, judgment, message):
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"judgment": judgment}))
    code, out = run_cli("judge", str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"{path}: judgment: {message}\n"


def test_judge_rejects_an_unknown_delta_type_before_sampling(tmp_path, capsys):
    path = _proof_file(
        tmp_path, "01_true.json", lambda n: n["judgment"].update(delta=[["q", "Foo"]])
    )
    code, out = run_cli("judge", str(path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == f"{path}: judgment: 'delta' variable q has unknown type Foo\n"


def test_judgment_file_derivation_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"derivation": []}))
    code, out = run_cli("judge", str(path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == f"{path}: judgment: 'derivation' is not an object\n"


@pytest.mark.parametrize("command", ["prove", "judge"])
def test_proof_file_that_is_not_json_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "p.json"
    path.write_text("{ not json")
    code, out = run_cli(command, str(path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: not JSON: ") and err.count("\n") == 1


def test_param_that_parses_but_breaks_its_rule_is_a_rejection(tmp_path):
    path = _proof_file(tmp_path, "34_ind_dist.json", _set_param("p", "2"))
    code, out = run_cli("prove", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"] == [
        "root [ind-dist]: mixing weight must be in (0,1)"]


@pytest.mark.parametrize(
    "command, source",
    [
        ("eval", "def f : Prop = forall x : Nat. tt\n"),
        ("judge", '{"judgment": {"delta": [], "hyps": [], "goal": "forall n : Nat. tt"}}'),
    ],
)
def test_evaluation_error_is_a_usage_error(tmp_path, capsys, command, source):
    # no enumeration of Nat is declared, so the quantifier cannot evaluate
    path = tmp_path / ("f.qlog" if command == "eval" else "j.json")
    path.write_text(source)
    extra = ("--def", "f") if command == "eval" else ()
    code, out = run_cli(command, str(path), *extra)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "cannot quantify over Nat: no enumeration or samples declared\n"
    )


@pytest.mark.parametrize(
    "source, name, value",
    [
        ("ctx f :[1] Nat -o Nat\ndef g : Nat -o Nat = f\n", "g", {"native": "const-seed"}),
        ("def f : Prop -o Prop = (fn x : Prop. x) (+ 1/3) (fn x : Prop. ~x)\n",
         "f", {"native": "mixture"}),
        ("def f : Prop = ((fn x : Prop. x) (+ 1/3) (fn x : Prop. ~x)) tt\n",
         "f", 0.6666666666666666),
        ("def p : Prop = tt (+ 1/3) ff\n", "p", 0.6666666666666666),
    ],
)
def test_function_values_and_mixes_have_a_json_form(tmp_path, source, name, value):
    path = tmp_path / "f.qlog"
    path.write_text(source)
    code, out = run_cli("eval", str(path), "--def", name, "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == value


_MINIMAL_ARGV = {
    "check": ("check", corpus("geo.qlog")),
    "eval": ("eval", corpus("geo.qlog"), "--def", "geo"),
    "distance": ("distance", corpus("geo.qlog"), "--left", "geo", "--right", "geo"),
    "prove": ("prove", corpus("derivs", "01_true.json")),
    "judge": ("judge", corpus("derivs", "01_true.json")),
    "casestudy": ("casestudy", "hypercube"),
    "hoare": ("hoare", "--left", SKIP_IMP, "--right", SKIP_IMP, "--pre", "tt",
              "--post", "tt"),
    "suite": ("suite",),
}
_SHARED_OPTIONS = {
    "--format": "json", "--fuel": "2", "--tol": "0.1", "--max-iter": "3",
    "--enums": corpus("enums", "default.json"), "--seed": "3",
}
_EVALUATING = {"--format", "--fuel", "--tol", "--enums"}
_READS = {
    "check": {"--format"},
    "prove": {"--format"},
    "suite": {"--format"},
    "eval": _EVALUATING,
    "distance": _EVALUATING,
    "judge": _EVALUATING | {"--seed"},
    "casestudy": _EVALUATING | {"--seed"},
    "hoare": {"--format", "--tol", "--max-iter"},
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in _MINIMAL_ARGV for f in _SHARED_OPTIONS if f not in _READS[c]],
)
def test_options_a_subcommand_never_reads_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli(*_MINIMAL_ARGV[command], flag, _SHARED_OPTIONS[flag])
    assert e.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
