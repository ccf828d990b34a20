"""Command-line behaviour: exit codes, JSON reports, determinism."""

import io
import json
import re
import sys
from fractions import Fraction

import pytest

from conftest import corpus
from qlog.cli import main, parse_store_pred
from qlog.imp import Store


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
    assert "nested too deeply" in err and err.startswith("1:")
    assert "Traceback" not in err


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
    ],
)
def test_casestudy_parameters_rejected_by_parser(flags, where, capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("casestudy", *flags)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


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


def test_bisimilarity_at_discount_one_is_a_usage_error(capsys):
    code, out = run_cli(
        "distance", corpus("markov.qlog"), "--left", "m", "--right", "n",
        "--proc", "--bisim",
    )
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "bisimilarity distance needs discount < 1, got 1\n"


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


@pytest.mark.parametrize("credit", ["nan", "-1", "x"])
def test_hoare_credit_must_be_a_non_negative_number(credit, capsys):
    # NaN used to be echoed as "credit": NaN, which is not JSON
    with pytest.raises(SystemExit) as e:
        run_cli(
            "hoare", "--left", SKIP_IMP, "--right", SKIP_IMP,
            "--pre", "tt", "--post", "tt", "--credit", credit, "--format", "json",
        )
    assert e.value.code == 2
    assert "argument --credit" in capsys.readouterr().err


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
