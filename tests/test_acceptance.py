"""The acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; `qlog suite` runs the same
checks from the command line.
"""

import itertools

import pytest

from qlog import acceptance


def _run(check):
    name, ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_transport_oracle_equivalence():
    _run(acceptance.check_transport_oracle)


def test_02_geometric_distribution():
    _run(acceptance.check_geometric)


def test_03_markov_quarter_bound():
    _run(acceptance.check_markov_quarter)


def test_04_biased_coin():
    _run(acceptance.check_biased_coin)


def test_05_bisimilarity_equals_behavioral():
    _run(acceptance.check_bisimilarity_agreement)


def test_06_td_contraction():
    _run(acceptance.check_td_contraction)


def test_07_hypercube():
    _run(acceptance.check_hypercube)


def test_08_internal_kantorovich():
    _run(acceptance.check_internal_kantorovich)


def test_09_hoare_termination():
    _run(acceptance.check_hoare_termination)


def test_10_prp_prf():
    _run(acceptance.check_prp_prf)


def test_11_logic_suite():
    _run(acceptance.check_logic_suite)


def test_12_typechecker_corpus():
    _run(acceptance.check_typechecker_corpus)


def _clock(step):
    ticks = itertools.count()
    return lambda: next(ticks) * step


@pytest.mark.parametrize(
    "check, limit",
    [(acceptance.check_biased_coin, 10), (acceptance.check_prp_prf, 120)],
)
def test_details_do_not_read_the_clock(check, limit, monkeypatch):
    # `qlog suite --format json` must be byte-deterministic: the time
    # limits decide the verdict but no seconds reach the details
    runs = []
    for step in (0.0, limit / 4):  # one step between reading t0 and the end
        monkeypatch.setattr(acceptance.time, "time", _clock(step))
        runs.append(check())
    assert runs[0] == runs[1] and runs[0][1]
    monkeypatch.setattr(acceptance.time, "time", _clock(limit))
    _, ok, detail = check()
    assert not ok and f"over {limit}s" in detail
