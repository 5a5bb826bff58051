import ast
import builtins
import importlib
import io
import re
import tokenize
import types
from pathlib import Path

import polymat

SOURCE = Path(polymat.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"


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
    # sort_generators is the one rule for the lex and revlex orders that a
    # variable order induces; the only other reader of the scan order is the
    # corpus dedupe, which relabels variables and compares no monomials
    allowed = {("quotients.py", "sort_generators"), ("corpus.py", "corpus_masks")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "positions":
                    if where not in allowed:
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


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


def test_every_raise_names_a_toolkit_error():
    # the CLI turns a PolymatError into exit 2, so a usage error must be one
    # and an internal fault must not look like one: the only other raises
    # are the process exit and the replay guard of the all-orders search
    errors_path = SOURCE / "errors.py"
    toolkit = {node.name for node in ast.parse(errors_path.read_text()).body
               if isinstance(node, ast.ClassDef)}
    allowed = {("cli.py", "entrypoint", "SystemExit"),
               ("quotients.py", "lq_all_orders_failure", "RuntimeError")}
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
