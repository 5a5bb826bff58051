"""Byte-for-byte pins of the witness-bearing output: the JSON (and, for
single checks, the stdout) that the CLI writes, and the verdict dicts of
the suite workers.  The expected values were recorded before witness
serialization was shared; any change to key names, nesting or order
shows up here."""

from pathlib import Path

import pytest

import polymat as pm
from polymat import suites
from polymat.cli import main

GOLDEN = Path(__file__).parent / "golden"
REMARK = "x1*x3^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3"
SQUAREFREE = "x1*x2 + x1*x3 + x2*x3"
# lex quotients with linear resolution hold for five of its six orders, not 3,2,1
MIXED = "x1^2*x2 + x1^2*x3 + x1*x2^2 + x2^3"

CASES = {
    "suite-remark": (["suite", "remark"], 0),
    "check-poly-remark": (["check", "poly", REMARK], 1),
    "check-poly-squarefree": (["check", "poly", SQUAREFREE], 0),
    "check-lq-order-fail": (["check", "lq", REMARK, "--kind", "lex", "--order", "3,2,1"], 1),
    "check-lq-order-pass": (["check", "lq", SQUAREFREE, "--kind", "lex", "--order", "3,2,1"], 0),
    "check-lq-all-fail": (["check", "lq", REMARK, "--kind", "revlex", "--all-orders"], 1),
    "check-lq-all-pass": (["check", "lq", SQUAREFREE, "--kind", "lex", "--all-orders"], 0),
    "check-qwlr-all": (["check", "qwlr", REMARK, "--kind", "revlex", "--all-orders"], 0),
    "check-qwlr-all-mixed": (["check", "qwlr", MIXED, "--kind", "lex", "--all-orders"], 1),
    "check-qwlr-order": (["check", "qwlr", MIXED, "--kind", "lex", "--order", "3,2,1"], 1),
    "betti-remark": (["betti", REMARK], 0),
    "lexsegment": (["lexsegment", "--u", "x1^2", "--v", "x1*x3", "--n", "3"], 0),
    "localize-remark": (["localize", REMARK, "--at", "3"], 0),
    # a two-variable theorem report carries linear_resolution
    "suite-theorem-2-2": (["suite", "theorem", "--n", "2", "--d", "2", "--jobs", "1"], 0),
    "suite-conjecture-2-2": (["suite", "conjecture", "--n", "2", "--d", "2", "--jobs", "1"], 0),
    "suite-localization-2-2": (
        ["suite", "localization", "--n", "2", "--d", "2", "--jobs", "1"], 0),
    # a random corpus puts its seed at the top level of the report
    "suite-conjecture-random": (
        ["suite", "conjecture", "--n", "3", "--d", "2", "--mode", "random", "--m", "3",
         "--count", "4", "--seed", "5", "--jobs", "1"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name, tmp_path, capsys):
    argv, code = CASES[name]
    path = tmp_path / "out.json"
    assert main(argv + ["--json", str(path)]) == code
    assert path.read_text() == (GOLDEN / f"{name}.json").read_text()
    if argv[0] == "check":
        # the suite summary carries a wall time, so only check output is pinned
        stdout = capsys.readouterr().out
        assert stdout == (GOLDEN / f"{name}.stdout").read_text()


# Verdicts no real corpus produces (the theorem holds and no counterexample
# to the conjecture is known), forced through the suite workers so that
# their witness shapes are pinned as well.  The forcing makes one mask
# kernel of the suite's layer misreport; the witnesses come from the checks.
REMARK_GENS = [[2, 0, 1], [1, 1, 1], [1, 0, 2], [0, 2, 1]]
REMARK_MASK = 180  # bits 2, 4, 5 and 7 of the (3,3) layer
EXCHANGE = {"u": [1, 0, 2], "v": [0, 2, 1], "variable": 1}


def remark_verdict(verdict_fn) -> dict:
    layer = suites._CorpusLayer(3, 3)
    assert layer.ideal(REMARK_MASK) == suites.remark_ideal()
    return verdict_fn(layer, 7, REMARK_MASK)


def test_theorem_mismatch_verdict_shape(monkeypatch):
    monkeypatch.setattr(suites._CorpusLayer, "exchange_failure", lambda layer, mask, members: None)
    assert remark_verdict(suites._theorem_verdict) == {
        "exchange_witness": EXCHANGE,
        "gens": REMARK_GENS,
        "index": 7,
        "lex_all_orders": False,
        "lq_witness": {"blocker": [1, 0, 2], "kind": "lex", "order": [3, 2, 1], "position": 2},
        "mask": REMARK_MASK,
        "polymatroidal": True,
        "verdict": "MISMATCH",
    }


def test_conjecture_counterexample_verdict_shape(monkeypatch):
    monkeypatch.setattr(suites._CorpusLayer, "search", lambda layer, kind, mask, members: None)
    assert remark_verdict(suites._conjecture_verdict) == {
        "exchange_witness": EXCHANGE,
        "gens": REMARK_GENS,
        "index": 7,
        "mask": REMARK_MASK,
        "revlex_orders_checked": [list(o.perm) for o in pm.all_variable_orders(3)],
        "verdict": "COUNTEREXAMPLE",
    }


def test_suite_prints_failing_verdicts(monkeypatch, capsys):
    # polymatroidal, yet some order is said to fail: no witness exists to record
    monkeypatch.setattr(suites._CorpusLayer, "exchange_failure", lambda layer, mask, members: None)
    monkeypatch.setattr(suites._CorpusLayer, "search",
                        lambda layer, kind, mask, members: ((1, 0), None))
    assert main(["suite", "theorem", "--n", "2", "--d", "1", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite theorem: FAIL (MISMATCH=3)")
    assert lines[1:] == [
        '  {"gens": [[1, 0]], "index": 0, "lex_all_orders": false, "linear_resolution": true, '
        '"mask": 1, "polymatroidal": true, "verdict": "MISMATCH"}',
        '  {"gens": [[0, 1]], "index": 1, "lex_all_orders": false, "linear_resolution": true, '
        '"mask": 2, "polymatroidal": true, "verdict": "MISMATCH"}',
        '  {"gens": [[1, 0], [0, 1]], "index": 2, "lex_all_orders": false, '
        '"linear_resolution": true, "mask": 3, "polymatroidal": true, "verdict": "MISMATCH"}',
    ]


def forced_veronese_counterexample(monkeypatch):
    """The (3,2) Veronese, mask 63, taken for a COUNTEREXAMPLE: the exchange
    kernel misreports it as not polymatroidal and the revlex search finds no
    refuting order, while the public exchange check finds no witness."""
    monkeypatch.setattr(suites._CorpusLayer, "exchange_failure",
                        lambda layer, mask, members: (0, 1, 0))
    monkeypatch.setattr(suites._CorpusLayer, "search", lambda layer, kind, mask, members: None)


def test_counterexample_without_a_public_witness(monkeypatch):
    forced_veronese_counterexample(monkeypatch)
    assert pm.is_polymatroidal(pm.ideal_from_mask(3, 2, 63))
    verdict = suites._conjecture_verdict(suites._CorpusLayer(3, 2), 0, 63)
    assert verdict["verdict"] == "COUNTEREXAMPLE"
    assert "exchange_witness" not in verdict
    assert verdict["revlex_orders_checked"] == [list(o.perm) for o in pm.all_variable_orders(3)]


def test_suite_exits_1_on_a_counterexample_without_a_public_witness(monkeypatch, capsys):
    # the CLI reports the failing verdicts instead of a traceback
    forced_veronese_counterexample(monkeypatch)
    assert main(["suite", "conjecture", "--n", "3", "--d", "2", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite conjecture: FAIL (COUNTEREXAMPLE=63)")
    assert '"mask": 63' in lines[-1] and "exchange_witness" not in lines[-1]
