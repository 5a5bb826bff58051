import ast
from pathlib import Path

import polymat

SOURCE = Path(polymat.__file__).parent


def test_no_assert_statements_in_library():
    # assert vanishes under python -O, so it cannot carry program logic
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
