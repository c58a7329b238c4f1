"""Properties of the package as a whole."""

import ast
import subprocess
import sys
import types
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


PUBLIC_NAMES = {
    "FutilityVerdict",
    "METHODS",
    "OrbitalGraph",
    "OrderedPartition",
    "PermGroup",
    "Permutation",
    "RefinementTrace",
    "SHAPE_BIPARTITE",
    "SHAPE_COMPLETE",
    "SHAPE_NONE",
    "build_orbital_graph",
    "build_orbital_graphs",
    "check_base_pair",
    "enumerate_base_pairs",
    "graph_to_json",
    "is_futile_fast",
    "is_futile_oracle",
    "is_futile_structural",
    "is_self_paired",
    "isolated_vertices",
    "load_group",
    "parse_cycles",
    "parse_group_text",
    "refine_by_graph",
    "select_useful_graphs",
    "to_dot",
    "trace_record",
    "transitive_group_futility",
    "verdict_record",
    "verdict_records",
    "weak_components",
}


def test_public_names_are_pinned():
    # the surface grows or shrinks only by an edit here; submodules, which
    # appear as attributes once imported, are not names of the package
    names = {
        name
        for name, value in vars(orbgraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


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
