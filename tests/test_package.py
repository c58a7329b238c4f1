"""Properties of the package as a whole."""

import ast
import subprocess
import sys
from pathlib import Path

import orbgraph

MODULES = sorted(Path(orbgraph.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # with every warning an error, a warning raised while hypothesis reports
    # a failing example would end the run with an internal error (exit 3)
    # before the next file; the run must report the failure and go on
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    (tmp_path / "test_passes.py").write_text("def test_passes():\n    pass\n")
    args = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "test_fails.py", "test_passes.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
