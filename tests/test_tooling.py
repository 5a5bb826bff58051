import ast
import builtins
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import polymat

SOURCE = Path(polymat.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def test_no_assert_statements_in_library():
    # assert vanishes under python -O, so it cannot carry program logic
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_unbounded_caches_in_library():
    # a process-wide cache without a size limit grows for as long as a sweep runs
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # `@cache` needs `from functools import cache`
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} import {alias.name}"
                          for alias in node.names if alias.name in ("cache", "*")]
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "functools.cache":
                found.append(f"{path.name}:{node.lineno} functools.cache")
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("lru_cache"):
                limits = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None for v in limits):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_betti_arithmetic_is_exact():
    # Betti numbers are ranks over Q: the Betti layer may hold no float, take
    # no true quotient, build no Fraction and reduce nothing modulo p
    path = SOURCE / "betti.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno} float constant {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno} true division")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "float":
            found.append(f"{node.lineno} float(...)")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "pow" and (
            len(node.args) == 3 or any(k.arg == "mod" for k in node.keywords)
        ):
            found.append(f"{node.lineno} three-argument pow")
        elif "Fraction" in {getattr(node, "id", None), getattr(node, "attr", None),
                            getattr(node, "name", None)}:
            found.append(f"{node.lineno} Fraction")
    assert not found, found


def test_betti_imports_only_core_and_errors():
    # has_linear_resolution and graded_betti stay homology-only: the Betti
    # layer cannot reach the linear-quotients certificate of the suites
    path = SOURCE / "betti.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            # from .core import ..., from polymat.core import ..., from . import core
            parts = node.module.split(".") if node.module else []
            if not node.level:
                if parts[:1] != ["polymat"]:
                    continue
                parts = parts[1:]
            modules = parts[:1] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
            modules = [".".join(d[1:2]) or "polymat" for d in dotted if d[0] == "polymat"]
        else:
            continue
        found += [f"betti.py:{node.lineno} {m}" for m in modules if m not in ("core", "errors")]
    assert not found, found


def test_faces_are_expanded_in_one_walk():
    # each face's boundary is built once, as _closure expands it, for the
    # upper-Koszul pairs and the Taylor strands alike; only the Taylor
    # oracle's lcm_of table and _koszul_slack's walk over the divisor bits
    # of a lattice point, which expands no face, take a lowest bit on their own
    path = SOURCE / "betti.py"
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd) \
                    and isinstance(node.right, ast.UnaryOp) \
                    and isinstance(node.right.op, ast.USub) \
                    and ast.unparse(node.right.operand) == ast.unparse(node.left):
                found.append(getattr(top, "name", None))
    assert sorted(found) == ["_closure", "_koszul_slack", "taylor_strand_betti"], found


def test_betti_holds_no_module_level_container():
    # the shape memo of graded_betti lives for one call: betti.py binds no
    # dict, set or list at module level, in a class body or as a default
    # argument, where it would outlive the call and grow for the process
    path = SOURCE / "betti.py"
    displays = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
    found = []

    def is_container(node):
        return isinstance(node, displays) or isinstance(node, ast.Call) \
            and ast.unparse(node.func) in ("dict", "set", "list")

    def visit(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = node.args.defaults + [v for v in node.args.kw_defaults if v]
                found.extend(f"betti.py:{v.lineno} default {ast.unparse(v)}"
                             for v in defaults if is_container(v))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                    and node.value is not None and is_container(node.value):
                found.append(f"betti.py:{node.lineno} {ast.unparse(node)}")

    visit(ast.parse(path.read_text(), filename=str(path)).body)
    assert not found, found


def test_factorial_loops_stay_behind_the_permutation_guard():
    # every n! enumeration goes through all_variable_orders, which checks the
    # guard first; the guard is the one reader of the environment
    allowed = {("core.py", "all_variable_orders"), ("core.py", "_check_perm_guard")}
    guarded = ("itertools.permutations", "os.environ", "os.getenv")
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module in ("itertools", "os"):
                    if {a.name for a in node.names} & {"permutations", "environ", "getenv", "*"}:
                        found.append(f"{path.name}:{node.lineno} from {node.module} import")
                elif isinstance(node, ast.Attribute) and ast.unparse(node) in guarded:
                    if where not in allowed:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_induced_orders_are_read_in_one_place():
    # quotients._induced_read is the one rule for the lex and revlex orders that
    # a variable order induces: it alone builds the read of the exponents, and
    # sort_generators and the colon tables' ranks both sort by it.  The only
    # other reader of the scan order is the corpus dedupe, which relabels
    # variables and compares no monomials
    allowed = {("quotients.py", "sort_generators"), ("corpus.py", "corpus_masks")}
    found = []
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "positions":
                    if where not in allowed:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
                elif isinstance(node, ast.Call):
                    name = ast.unparse(node.func).rsplit(".", 1)[-1]
                    if name == "itemgetter" and where != ("quotients.py", "_induced_read"):
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
                    elif name == "_induced_read":
                        callers.add(where)
    assert not found, found
    assert callers == {("quotients.py", "sort_generators"), ("quotients.py", "_ColonTables")}


def test_suites_localize_no_ideal():
    # every corpus localization is read off the slice's tables, the undecided
    # ones included; MonomialIdeal.localize serves the CLI, the tests and
    # reverify_witness, which replays a listed violation on the ideal that
    # `polymat localize` prints
    path = SOURCE / "suites.py"
    found = [f"suites.py:{node.lineno} {ast.unparse(node)}"
             for name, top in _definitions(ast.parse(path.read_text(), filename=str(path)))
             if name != "reverify_witness"
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "localize"]
    assert not found, found


def _definitions(tree):
    """(name, node) for each top-level statement, a class's methods named
    Class.method; a function's nested definitions stay inside its node."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                yield f"{top.name}.{getattr(member, 'name', None)}", member
        else:
            yield getattr(top, "name", None), top


def _zeroes_by_variables(node):
    # an entry chosen as 0 by a variable set, `0 if z >> i & 1 else a` or
    # `0 if i + 1 in off else a`, or a 0/1 mask multiplied into the exponents
    if isinstance(node, ast.IfExp):
        zero = any(isinstance(branch, ast.Constant) and branch.value == 0
                   for branch in (node.body, node.orelse))
        by_set = any(isinstance(n, ast.BinOp) and isinstance(n.op, (ast.RShift, ast.BitAnd))
                     or isinstance(n, ast.Compare)
                     and any(isinstance(op, (ast.In, ast.NotIn)) for op in n.ops)
                     for n in ast.walk(node.test))
        return zero and by_set
    return isinstance(node, (ast.Name, ast.Attribute)) \
        and ast.unparse(node) in ("mul", "operator.mul")


def test_substitutions_are_zeroed_in_one_place():
    # core._substituted is the one rule for the substitution x_i -> 1, so the
    # ideal behind a localization VIOLATION is the one `polymat localize`
    # prints: MonomialIdeal.localize, the images of the corpus layer and the
    # homology fallback of the localization verdict all call it
    found = []
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for name, top in _definitions(ast.parse(path.read_text(), filename=str(path))):
            for node in ast.walk(top):
                if _zeroes_by_variables(node):
                    found.append((path.name, name, ast.unparse(node)))
                elif isinstance(node, ast.Call) \
                        and ast.unparse(node.func).rsplit(".", 1)[-1] == "_substituted":
                    callers.add((path.name, name))
    rule = [entry for entry in found if entry[:2] == ("core.py", "_substituted")]
    assert rule and len(rule) == len(found), found
    assert callers == {("core.py", "MonomialIdeal.localize"),
                       ("corpus.py", "_CorpusLayer._images"),
                       ("suites.py", "_localization_verdict")}, sorted(callers)


def test_layer_walk_and_theorem_witnesses_are_written_once():
    # the degree-d layer is the lexsegment L(x1^d, xn^d), so lexsegment.lexsegment
    # is the one walk over the variable multisets; a theorem MISMATCH records
    # the witnesses of quotients.theorem_equivalence, the paper's theorem for
    # one ideal, rather than a second copy of its two checks
    calls = {}
    for path in sorted(SOURCE.glob("*.py")):
        for name, top in _definitions(ast.parse(path.read_text(), filename=str(path))):
            calls[path.name, name] = {ast.unparse(node.func).rsplit(".", 1)[-1]
                                      for node in ast.walk(top) if isinstance(node, ast.Call)}
    walkers = {where for where, names in calls.items() if "combinations_with_replacement" in names}
    assert walkers == {("lexsegment.py", "lexsegment")}, sorted(walkers)
    assert "lexsegment" in calls["lexsegment.py", "monomials_of_degree"]
    searches = {name for (file, name), names in calls.items()
                if file == "suites.py" and "lq_all_orders_failure" in names}
    assert not searches, sorted(searches)
    assert "theorem_equivalence" in calls["suites.py", "_theorem_verdict"]


def test_import_loads_no_process_pool():
    # concurrent.futures and multiprocessing load where a pool starts, which
    # no corpus under suites._MIN_SLICE needs; a fresh interpreter shows what
    # `import polymat` itself brings in
    paths = [str(SOURCE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import sys, polymat; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    child = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, env=env, check=False)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n", child.stdout


def test_permutation_guard_is_checked_where_orders_are_searched():
    # core enumerates the n! orders, quotients searches them for one ideal and
    # the suites before a corpus is drawn; building the colon tables of a
    # corpus layer costs nothing factorial, so corpus.py checks no guard
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func).rsplit(".", 1)[-1] == "_check_perm_guard":
                callers.add(path.name)
    assert callers == {"core.py", "quotients.py", "suites.py"}, sorted(callers)


def test_corpus_masks_are_decoded_in_one_place():
    # corpus._CorpusLayer is the one codec between a corpus mask and its
    # monomials: ideal_from_mask, enumerate_corpus, the isomorphism dedupe
    # and the suites' slices all read the layer through one
    allowed = {("corpus.py", "_CorpusLayer")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name in ("_decode", "decode_masks"):
                    found.append(f"{path.name}:{node.lineno} def {node.name}")
                elif isinstance(node, ast.Call) and where not in allowed \
                        and ast.unparse(node.func).rsplit(".", 1)[-1] == "monomials_of_degree":
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_corpus_layers_are_built_in_one_place_each():
    # a layer is built per call or per suite slice, never inside another layer:
    # the localizations are decided on the slice's own layer
    allowed = {("corpus.py", "ideal_from_mask"), ("corpus.py", "corpus_masks"),
               ("corpus.py", "enumerate_corpus"), ("suites.py", "_verdict_chunk")}
    callers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) \
                        and ast.unparse(node.func).rsplit(".", 1)[-1] == "_CorpusLayer":
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == allowed, sorted(callers ^ allowed)


def test_integers_are_decided_in_one_place():
    # core._integers is the one integer rule: a second predicate would let True
    # or an __index__ object through in one place and refuse it in another
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name, getattr(top, "name", None)) == ("core.py", "_integers"):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "operator":
                    if {a.name for a in node.names} & {"index", "*"}:
                        found.append(f"{path.name}:{node.lineno} from operator import")
                elif isinstance(node, ast.Attribute) and ast.unparse(node) == "operator.index":
                    found.append(f"{path.name}:{node.lineno} operator.index")
                elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops
                ):
                    sides = {ast.unparse(side) for side in [node.left, *node.comparators]}
                    if "int" in sides and any(side.startswith("type(") for side in sides):
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_monomials_are_decided_in_one_place():
    # core._monomials is the one monomial rule: a duck-typed entry or a ring
    # check of its own elsewhere would let a stand-in through in one place and
    # give one fault two error types.  A ring check compares a variable count
    # with another count, not with a constant; the one outside the rule is
    # sort_generators', which compares an order's ring with its ideal's
    allowed = {("core.py", "_monomials"), ("quotients.py", "sort_generators")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name, getattr(top, "name", None)) in allowed:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    if "AttributeError" in ast.unparse(node.type):
                        found.append(f"{path.name}:{node.lineno} except AttributeError")
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    if "AmbientMismatchError" in ast.unparse(node.exc):
                        found.append(f"{path.name}:{node.lineno} raise AmbientMismatchError")
                elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
                ):
                    sides = [node.left, *node.comparators]
                    if any(isinstance(side, ast.Attribute) and side.attr == "n" for side in sides) \
                            and not any(isinstance(side, ast.Constant) for side in sides):
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_types_are_decided_in_one_place():
    # core._instance is the one type rule: a check of its own elsewhere would
    # word one fault two ways, and a missing one lets a stand-in get an answer.
    # The other isinstance tests are the integer and monomial rules, the
    # shape checks of parsed JSON and of verdict records, and the package's
    # export list, which leaves the submodules out.  The mask kernels never
    # call the rule, so no corpus verdict pays for it
    allowed = {("core.py", "_instance"), ("core.py", "_integers"), ("core.py", "_monomials"),
               ("ioformats.py", "ideal_from_json_dict"), ("suites.py", "_record"),
               ("__init__.py", None)}
    kernels = {("polymatroid.py", "_Layer"), ("quotients.py", "_ColonTables"),
               ("corpus.py", "_CorpusLayer"), ("suites.py", "_verdict_chunk"),
               ("suites.py", "_localization_verdict"), ("suites.py", "_local_generators"),
               ("suites.py", "_linear_on_tables")}
    found = []
    seen = set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(top, "name", None))
            seen.add(where)
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name in ("_corpus_spec", "_text"):
                    found.append(f"{path.name}:{node.lineno} def {node.name}")
                elif isinstance(node, ast.Call):
                    name = ast.unparse(node.func).rsplit(".", 1)[-1]
                    if name == "isinstance" and where not in allowed:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
                    elif name == "_instance" and where in kernels:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)} in a kernel")
    assert not found, found
    assert allowed | kernels <= seen, sorted((allowed | kernels) - seen)


def test_exchange_swaps_are_built_in_one_place():
    # polymatroid._Layer._swaps is the one exchange swap test: it steps one
    # exponent of a layer element down and another up and looks the result
    # up, and the exchange rows and the colon tables read its bits.  A
    # single-entry step elsewhere would be a second scanner; the only other
    # one adds up the exponents of repeated factors in the parser.  The tuple
    # scanner it replaced lives on as an oracle under tests/ only
    allowed = {("polymatroid.py", "_swaps"), ("ioformats.py", "_build_monomial")}
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "_exchange_scan":
                    found.append(f"{path.name}:{child.lineno} def _exchange_scan")
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Subscript) \
                    and isinstance(child.op, (ast.Add, ast.Sub)):
                if (path.name, function) not in allowed:
                    found.append(f"{path.name}:{child.lineno} {ast.unparse(child)}")
            visit(child, path, function)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    assert not found, found
    oracle = Path(__file__).parent / "test_polymatroid.py"
    assert "_exchange_scan" in {node.name for node in ast.parse(oracle.read_text()).body
                                if isinstance(node, ast.FunctionDef)}


def test_every_raise_names_a_toolkit_error():
    # the CLI turns a PolymatError into exit 2, so a usage error must be one
    # and an internal fault must not look like one: the only other raise is
    # the process exit
    errors_path = SOURCE / "errors.py"
    toolkit = {node.name for node in ast.parse(errors_path.read_text()).body
               if isinstance(node, ast.ClassDef)}
    allowed = {("cli.py", "entrypoint", "SystemExit")}
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = ast.unparse(exc).rsplit(".", 1)[-1]
                if name not in toolkit and (path.name, function, name) not in allowed:
                    found.append(f"{path.name}:{child.lineno} raise {name} in {function}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if is_function else function)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    assert not found, found

def test_cli_writes_output_only_in_main():
    # handlers return (code, lines, payload) and main writes: the JSON file
    # first, then stdout, so an unwritable --json path leaves stdout empty
    path = SOURCE / "cli.py"
    writers = {"print", "open", "write", "write_text", "write_bytes"}
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if getattr(top, "name", None) == "main":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in writers:
                    found.append(f"cli.py:{node.lineno} {ast.unparse(func)}")
    assert not found, found


def test_tracer_hooks_resolve():
    # the benchmark's tracer rebinds these attributes to time each layer; a
    # renamed one would silently read zero, so it must fail here instead.
    # The file is parsed, not imported, so nothing is written next to it.
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (hooks,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]
    ]
    missing = []
    for entry in hooks.elts:
        owner_path = ast.unparse(entry.elts[0]).split(".")
        attribute = ast.literal_eval(entry.elts[1])
        owner = importlib.import_module(owner_path[0])
        for part in owner_path[1:]:
            owner = getattr(owner, part)
        if not hasattr(owner, attribute):
            missing.append(f"{'.'.join(owner_path)}.{attribute}")
    assert hooks.elts and not missing, missing


def test_readme_export_list_matches_package():
    # the paragraph after the one that introduces "the package exports, by module"
    paragraphs = re.split(r"\n\s*\n", README.read_text())
    (intro,) = [i for i, p in enumerate(paragraphs)
                if "the package exports, by module" in " ".join(p.split())]
    listed = {name for name in re.findall(r"`([^`]+)`", paragraphs[intro + 1])
              if name.isidentifier()}
    submodules = {name for name in polymat.__all__
                  if isinstance(getattr(polymat, name), types.ModuleType)}
    unlisted = set(polymat.__all__) - submodules - listed
    assert not unlisted, sorted(unlisted)
    unknown = {name for name in listed - set(polymat.__all__)
               if not hasattr(polymat.MonomialIdeal, name) and not hasattr(builtins, name)}
    assert not unknown, sorted(unknown)


def test_star_import_binds_no_module():
    # the submodules stay attributes of the package, so `from polymat import
    # betti` still works, but `from polymat import *` binds no module name
    namespace = {}
    exec("from polymat import *", namespace)
    modules = sorted(name for name, value in namespace.items()
                     if isinstance(value, types.ModuleType))
    assert not modules, modules
    assert set(namespace) - {"__builtins__"} == set(polymat.__all__)
    assert all(isinstance(getattr(polymat, name), types.ModuleType)
               for name in ("betti", "corpus", "quotients", "suites"))


def test_library_imports_only_the_standard_library():
    # README promises no runtime dependency beyond the standard library; the
    # imports are read from the syntax tree, since docstrings hold import-like
    # lines
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name != "__future__"
                      and name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_readme_example_runs():
    # the one-minute example runs line by line, and each expression whose
    # comment starts with "# True" or "# False" evaluates to that value
    (block,) = re.findall(r"## Library in one minute\s+```python\n(.*?)```",
                          README.read_text(), re.S)
    namespace = {}
    checked = 0
    for line in block.splitlines():
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((t.string for t in tokens if t.type == tokenize.COMMENT), "")
        verdict = re.match(r"# (True|False)\b", comment)
        if verdict:
            assert eval(line, namespace) is (verdict[1] == "True"), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked >= 5, checked


def test_package_version_matches_pyproject():
    # the version is declared twice, in pyproject.toml's [project] table and in
    # polymat/version.py; a regex reads the table, since tomllib needs 3.11
    (project,) = re.findall(r"^\[project\]\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(), re.M | re.S)
    (declared,) = re.findall(r'^version = "([^"]+)"$', project, re.M)
    assert declared == importlib.import_module("polymat.version").__version__
    assert declared == polymat.__version__


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # under filterwarnings = error, the warning that hypothesis's report of a
    # failing example raises on import would end the session with INTERNALERROR
    # before later tests run; the repository's config must let both report
    pair = tmp_path / "test_pair.py"
    pair.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    assert True\n"
    )
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", str(pair)],
        capture_output=True, text=True, cwd=tmp_path, check=False)
    output = child.stdout + child.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    # 8 code lines: a string literal that is no docstring counts each of its
    # non-blank lines, and a comment after code leaves that line code
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "import os  # a comment after code\n"
        "\n"
        "# a comment line\n"
        "\n\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        "        # a comment\n"
        '        text = """a string\n'
        "\n"
        '        that is no docstring"""\n'
        "        return text\n"
        "\n\n"
        "async def g():\n"
        "    '''Async docstring.'''\n"
        "    return 1\n"
    )
    child = subprocess.run([sys.executable, str(CODE_LINES), str(sample)],
                           capture_output=True, text=True, check=True)
    assert child.stdout.split("\n") == ["     8  sample.py", "     8  total", ""]
