import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polymat as pm
from polymat import cli, suites
from polymat.cli import main

REMARK = "x1*x3^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3"


def test_check_poly_fails_on_remark(capsys):
    assert main(["check", "poly", REMARK]) == 1
    out = capsys.readouterr().out
    assert "NOT polymatroidal" in out
    assert "x1*x3^2" in out


def test_check_poly_passes_on_veronese(capsys):
    assert main(["check", "poly", "x1^2 + x1*x2 + x2^2"]) == 0
    assert "polymatroidal" in capsys.readouterr().out


def test_check_lq_single_order(capsys):
    assert main(["check", "lq", REMARK, "--kind", "revlex", "--order", "3,2,1"]) == 1
    assert main(["check", "lq", REMARK, "--kind", "revlex", "--order", "1,2,3"]) == 0


def test_check_lq_all_orders(capsys):
    assert main(["check", "lq", "x1^2 + x1*x2 + x2^2", "--kind", "lex", "--all-orders"]) == 0
    assert main(["check", "lq", REMARK, "--kind", "lex", "--all-orders"]) == 1
    assert "3,2,1" in capsys.readouterr().out


def test_check_qwlr_all_orders(capsys):
    assert main(["check", "qwlr", REMARK, "--kind", "lex", "--all-orders"]) == 0
    assert main(["check", "qwlr", REMARK, "--kind", "revlex", "--all-orders"]) == 0


def test_python_dash_m_runs_the_cli(capsys):
    # the package need not be installed: the child finds it where this test did
    paths = [str(Path(pm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run(
        [sys.executable, "-m", "polymat", "betti", "x1 + x2"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert main(["betti", "x1 + x2"]) == 0
    assert child.returncode == 0, child.stderr
    assert child.stdout == capsys.readouterr().out


def test_betti_triangle(capsys):
    assert main(["betti", "x1^2 + x1*x2 + x2^2"]) == 0
    out = capsys.readouterr().out
    assert "total:" in out
    assert "linear resolution: yes" in out


def test_betti_not_equigenerated(capsys):
    assert main(["betti", "x1 + x2^2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "not equigenerated; no linear resolution"


def test_betti_json(tmp_path, capsys):
    path = tmp_path / "betti.json"
    assert main(["betti", "x1 + x2", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["betti"] == [[0, 1, 2], [1, 2, 1]]
    assert data["schema"] == 1


def test_lexsegment_command(capsys):
    assert main(["lexsegment", "--u", "x1^2", "--v", "x1*x3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 monomials" in out
    assert "completely lexsegment" in out


@pytest.mark.parametrize("u, v, n, given", [
    ("x1^2", "x1*x3", 3, True),
    ("x2^2", "x2*x3", 3, False),
    ("x1*x2", "x1*x3", 4, True),
    ("x1*x2^2", "x1*x2*x3", 3, False),
    ("x1^3", "x3^3", 3, False),
    ("1", "1", 2, True),
])
def test_lexsegment_default_shadow_depth(capsys, u, v, n, given):
    # without --shadow-depth the command prints the library's default depth,
    # max(1, n*d), and the answer is_completely_lexsegment gives at its default
    argv = ["lexsegment", "--u", u, "--v", v] + (["--n", str(n)] if given else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    ((depth, answer),) = re.findall(
        r"^completely lexsegment \(shadow depth (\d+)\): (yes|no)$", out, re.M)
    um, vm = pm.parse_monomial(u, n), pm.parse_monomial(v, n)
    assert int(depth) == max(1, n * um.degree)
    assert answer == ("yes" if pm.is_completely_lexsegment(um, vm) else "no")


def test_localize_command(capsys):
    assert main(["localize", "x1^2 + x1*x2 + x2*x3", "--at", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x1^2 + x2"


def test_index_lists_accept_surrounding_whitespace(capsys):
    assert main(["localize", "x1^2 + x1*x2 + x2*x3", "--at", " 3 ,3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x1^2 + x2"
    assert main(["check", "lq", REMARK, "--kind", "revlex", "--order", " 3, 2 ,1 "]) == 1


def test_ideal_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("x1^2\nx1*x2\nx2^2\n")
    assert main(["check", "poly", "--file", str(path)]) == 0
    jpath = tmp_path / "ideal.json"
    jpath.write_text(json.dumps({"n": 2, "gens": [[2, 0], [1, 1], [0, 2]]}))
    assert main(["check", "poly", "--file", str(jpath)]) == 0


def test_suite_remark(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["suite", "remark", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["passed"] is True
    assert len(data["verdicts"]) == 3


def test_suite_remark_accepts_jobs(capsys):
    # --jobs and --json are the suite options that do not describe a corpus
    assert main(["suite", "remark", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.startswith("suite remark: PASS")


def test_suite_jobs_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    assert cli.build_parser().parse_args(["suite", "theorem"]).jobs == 3


def test_suite_theorem_small(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(
        ["suite", "theorem", "--n", "2", "--d", "3", "--jobs", "1", "--json", str(path)]
    ) == 0
    data = json.loads(path.read_text())
    assert data["totals"] == {"consistent": 15}


def test_parse_error_exits_2(capsys):
    assert main(["check", "poly", "x1^-2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_error_exits_2(capsys):
    assert main(["suite", "theorem", "--n", "5", "--d", "3", "--jobs", "1"]) == 2
    assert "error:" in capsys.readouterr().err


NON_UTF8_FILE = "<a binary file written by the test>"
UNWRITABLE_JSON = "<a --json path in a directory that does not exist>"


@pytest.mark.parametrize(
    "argv",
    [
        # variable order of the wrong length
        ["check", "lq", "x1*x3 + x2*x3 + x1*x2", "--kind", "lex", "--order", "2,1"],
        ["check", "qwlr", "x1*x3 + x2*x3 + x1*x2", "--kind", "lex", "--order", "2,1"],
        ["check", "lq", "x1", "--kind", "lex", "--order", "1,2"],
        # substitution index out of range or malformed
        ["localize", "x1", "--at", "5"],
        ["localize", "x1", "--at", "abc"],
        # lexsegment endpoints of different degrees, negative shadow depth
        ["lexsegment", "--u", "x1", "--v", "x2^2"],
        ["lexsegment", "--u", "x1", "--v", "x1", "--shadow-depth", "-1"],
        # corpus parameters out of range
        ["suite", "theorem", "--n", "0"],
        ["suite", "theorem", "--n", "2", "--d", "2", "--mode", "random", "--m", "9",
         "--count", "1"],
        # worker count below one
        ["suite", "theorem", "--jobs", "0"],
        ["suite", "theorem", "--jobs", "-3"],
        # ideal JSON whose generator list is not a list
        ["check", "poly", '{"n": 2, "gens": 5}'],
        # a directory where an ideal file is expected
        ["check", "poly", "--file", str(Path(__file__).parent)],
        # a file that is not UTF-8 text
        ["check", "poly", "--file", NON_UTF8_FILE],
        # JSON booleans where a count or an exponent is expected
        ["check", "poly", '{"n": true, "gens": [[1]]}'],
        ["check", "poly", '{"n": 2, "gens": [[true, false]]}'],
        # corpus parameters the chosen mode would ignore
        ["suite", "theorem", "--n", "3", "--d", "2", "--m", "2", "--count", "5"],
        ["suite", "theorem", "--count", "5"],
        ["suite", "theorem", "--seed", "5"],
        ["suite", "theorem", "--mode", "random", "--m", "2", "--count", "3",
         "--start-mask", "99999"],
        ["suite", "theorem", "--mode", "random", "--n", "4", "--d", "2", "--m", "3",
         "--count", "20", "--dedupe-isomorphic", "--jobs", "1"],
        # corpus options for the one fixed ideal of the remark
        ["suite", "remark", "--n", "6", "--d", "4", "--mode", "random", "--m", "3",
         "--count", "5", "--dedupe-isomorphic"],
        ["suite", "remark", "--seed", "1"],
        # an ambient ring without variables
        ["check", "poly", "1", "--n", "0"],
        ["check", "poly", "1", "--n", "-2"],
        ["betti", "1", "--n", "0"],
        ["lexsegment", "--u", "1", "--v", "1", "--n", "0"],
        # corpus options for the remark, given at their default values
        ["suite", "remark", "--n", "3", "--seed", "0"],
        # a worker count below one, for the suite that runs no corpus
        ["suite", "remark", "--jobs", "0"],
        ["suite", "remark", "--jobs", "-3"],
        # n! enumerations above the permutation guard
        ["check", "qwlr", "x1 + x11", "--kind", "lex", "--all-orders"],
        ["suite", "theorem", "--n", "11", "--d", "1", "--dedupe-isomorphic", "--jobs", "1"],
        # a --json path that cannot be written, for commands that would pass
        ["check", "poly", "x1*x2", "--json", UNWRITABLE_JSON],
        ["check", "lq", "x1*x2", "--kind", "lex", "--order", "1,2", "--json", UNWRITABLE_JSON],
        ["check", "qwlr", "x1*x2", "--kind", "lex", "--order", "1,2", "--json", UNWRITABLE_JSON],
        ["betti", "x1*x2", "--json", UNWRITABLE_JSON],
        ["lexsegment", "--u", "x1", "--v", "x2", "--json", UNWRITABLE_JSON],
        ["localize", "x1*x2", "--at", "1", "--json", UNWRITABLE_JSON],
        ["suite", "remark", "--json", UNWRITABLE_JSON],
        # a variable count that contradicts the "n" of an ideal JSON document
        ["check", "poly", '{"n": 3, "gens": [[1, 0, 0], [0, 1, 0]]}', "--n", "5"],
        # a variable count too large to index
        ["check", "poly", "x1", "--n", str(2**70)],
        ["lexsegment", "--u", "x1", "--v", "x1", "--n", str(2**70)],
        ["betti", "x1", "--n", str(2**70)],
        # ideal JSON cut short
        ["check", "poly", '{"n": 2,'],
        # integer text other than ASCII digits, which int() would read
        ["localize", "x1*x10", "--at", "1_0"],
        ["localize", "x1*x2*x3", "--at", "\u0663"],
        ["check", "lq", "x1*x2 + x2*x3", "--kind", "lex", "--order", "1,\u0662,3"],
        ["check", "lq", "x1*x2 + x2*x3", "--kind", "lex", "--order", "1,2,+3"],
        ["check", "poly", "x\u0661*x2 + x2^\u0662"],
        ["check", "poly", "x1*x2 + x2^\u0662"],
        # an index with more digits than int() converts
        ["localize", "x1", "--at", "9" * 5000],
    ],
)
def test_error_contract_exits_2(argv, capsys, tmp_path):
    binary = tmp_path / "ideal.bin"
    # the head of an executable: 0x80 and up never start a UTF-8 character
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xB8)))
    replace = {NON_UTF8_FILE: str(binary), UNWRITABLE_JSON: str(tmp_path / "missing" / "out.json")}
    argv = [replace.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("value", ["abc", "", "\u0663", "1_0", "+8", "\x1c8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "lq", "x1*x2+x2*x3", "--kind", "lex", "--all-orders"],
        ["suite", "theorem", "--n", "2", "--d", "1", "--jobs", "1"],
        ["check", "qwlr", "x1*x2+x2*x3", "--kind", "lex", "--all-orders"],
    ],
)
def test_malformed_permutation_guard_exits_2(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("POLYMAT_MAX_PERMS", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: POLYMAT_MAX_PERMS={value!r} is not an integer\n"


SMALL_SUITE = ["suite", "theorem", "--n", "2", "--d", "1"]
RANDOM_SUITE = ["suite", "theorem", "--n", "2", "--d", "1", "--mode", "random"]


@pytest.mark.parametrize("argv, value", [
    (["check", "poly", "x1*x2", "--n"], "2"),
    (["lexsegment", "--u", "x1", "--v", "x2", "--n"], "2"),
    (["lexsegment", "--u", "x1", "--v", "x2", "--shadow-depth"], "1"),
    (["suite", "theorem", "--d", "1", "--jobs", "1", "--n"], "2"),
    (["suite", "theorem", "--n", "2", "--jobs", "1", "--d"], "1"),
    (RANDOM_SUITE + ["--count", "1", "--jobs", "1", "--m"], "1"),
    (RANDOM_SUITE + ["--m", "1", "--jobs", "1", "--count"], "1"),
    (RANDOM_SUITE + ["--m", "1", "--count", "1", "--jobs", "1", "--seed"], "-5"),
    (SMALL_SUITE + ["--jobs", "1", "--start-mask"], "2"),
    (SMALL_SUITE + ["--jobs"], "1"),
    (["suite", "remark", "--jobs"], "1"),
])
def test_integer_options_read_ascii_digits(argv, value, capsys):
    # the text int() would also read, or that is no integer, exits 2 before
    # any command runs; the surrounding whitespace int() takes is kept
    assert main(argv + [f" {value}\t"]) in (0, 1)
    capsys.readouterr()
    for text in ["\u0663", "1_0", "+1", "1.0", "", "0x1", "\uff11", "\x1c1", "- 1"]:
        with pytest.raises(SystemExit) as exited:
            main(argv + [text])
        assert exited.value.code == 2, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert "invalid" in captured.err, text


@pytest.mark.parametrize("m", ["1", "2"])
def test_conjecture_guard_refuses_before_the_corpus(m, monkeypatch, capsys, tmp_path):
    # a random (9,2) corpus of single generators is all polymatroidal and would
    # search no order, but the refusal does not depend on what the corpus holds
    monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
    out = tmp_path / "out.json"
    argv = ["suite", "conjecture", "--n", "9", "--d", "2", "--mode", "random", "--m", m,
            "--count", "5", "--json", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumerating 9! variable orders exceeds the guard of 8 variables\n"
    assert not out.exists()


def test_mask_too_long_to_render_exits_2(digit_limit, monkeypatch, capsys, tmp_path):
    # the (4,60) layer has 39,711 monomials, so a drawn mask has more digits than
    # the interpreter renders: the report is refused as a bound, not a crash,
    # and before any verdict is decided
    decided, chunk = [], suites._verdict_chunk
    monkeypatch.setattr(suites, "_verdict_chunk", lambda task: decided.append(task) or chunk(task))
    out = tmp_path / "out.json"
    argv = ["suite", "theorem", "--n", "4", "--d", "60", "--mode", "random", "--m", "2",
            "--count", "1", "--jobs", "1", "--json", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot render the JSON: ")
    assert not out.exists()
    assert decided == []


def test_renderable_layer_is_drawn_once(digit_limit, monkeypatch, tmp_path):
    # the (3,2) layer's full mask renders, so the command draws no masks of its own
    drawn = []
    monkeypatch.setattr(cli, "corpus_masks", lambda spec: drawn.append(spec) or [])
    argv = ["suite", "theorem", "--n", "3", "--d", "2", "--mode", "random", "--m", "2",
            "--count", "3", "--jobs", "1", "--json", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert drawn == []


@pytest.mark.parametrize("mask, code, line", [
    (3, 1, '  {"mask": 3, "verdict": "MISMATCH"}'),
    (1 << 20_000, 2, None),
], ids=["renders", "refused"])
def test_failure_lines_render_or_refuse(digit_limit, monkeypatch, capsys, mask, code, line):
    # the compact failure lines print without --json, and refuse as the report does
    report = pm.CheckReport("theorem", {}, [{"verdict": "MISMATCH", "mask": mask}])
    monkeypatch.setitem(cli.SUITES, "theorem", lambda spec, jobs: report)
    assert main(["suite", "theorem", "--jobs", "1"]) == code
    captured = capsys.readouterr()
    if line is None:
        assert captured.out == ""
        assert captured.err.startswith("error: cannot render the JSON: ")
    else:
        assert captured.out.splitlines()[1] == line


@pytest.mark.parametrize("handler, argv", [
    ("_cmd_check_poly", ["check", "poly", "x1", "--n", "1099511627776"]),
    ("_cmd_lexsegment", ["lexsegment", "--u", "x1", "--v", "x1", "--n", "1099511627776"]),
])
def test_out_of_memory_exits_2(handler, argv, monkeypatch, capsys, tmp_path):
    # a monomial in 2^40 variables would fill memory on a host that
    # overcommits, so the handler raises as the allocation would
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, handler, exhausted)
    out = tmp_path / "out.json"
    assert main([*argv, "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert not out.exists()


def test_missing_ideal_exits_2(capsys):
    assert main(["check", "poly"]) == 2


def test_conflicting_inputs_exit_2(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("x1")
    assert main(["check", "poly", "x1", "--file", str(path)]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pm.__version__ in capsys.readouterr().out
