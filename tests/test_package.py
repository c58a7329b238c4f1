"""Properties of the package as a whole."""

import ast
import sys
from pathlib import Path

import orbgraph

MODULES = sorted(Path(orbgraph.__file__).parent.glob("*.py"))


def test_imports_only_the_standard_library():
    # the runtime dependencies stay at zero: every absolute import in the
    # package names a standard-library module; relative ones stay inside
    assert MODULES
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
