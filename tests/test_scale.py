"""Commands at the largest degree the parser accepts, within one budget.

MAX_DEGREE admits degree 10 000, so each row runs one command on C_10 000
or D_10 000 in a fresh interpreter, checks its exit status and a short
digest of its stdout, and holds its max RSS to 200 MB. A command joins the
rows once it meets the budget; base-pairs, the fast test, the futility
table and futility over all pairs do not yet.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import orbgraph

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="reads max RSS as Linux reports it")

N = 10_000
BUDGET_MB = 200


def _group_text(family: str) -> str:
    """C_N from its N-cycle, and D_N from that cycle and a reflection."""
    lines = [f"degree: {N}", "(" + ",".join(map(str, range(1, N + 1))) + ")"]
    if family == "D":
        lines.append("".join(f"({x},{N + 1 - x})" for x in range(1, N // 2 + 1)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def group_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale")
    files = {}
    for family in ("C", "D"):
        files[family] = path / f"{family}{N}.grp"
        files[family].write_text(_group_text(family))
    return files


# Linux starts a child's max RSS at the peak of the process it was spawned
# from, so a row spawned by pytest would read at least pytest's own peak,
# and getrusage(RUSAGE_CHILDREN) is a running maximum over every child
# reaped. So a bare interpreter spawns each row, reads the row's figure
# with os.wait4 on that one child, and writes its exit status and max RSS
# in KiB to the file named by its first argument.
LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "with open(sys.argv[1], 'w') as report:\n"
    "    report.write(f'{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}')\n"
)


def _run(argv):
    """Run argv in a child; return its exit status, stdout, stderr and
    max RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(orbgraph.__file__).parents[1]))
    with (
        tempfile.TemporaryFile() as out,
        tempfile.TemporaryFile() as err,
        tempfile.NamedTemporaryFile("r") as report,
    ):
        launch = [sys.executable, "-c", LAUNCHER, report.name, *argv]
        subprocess.run(launch, stdout=out, stderr=err, env=env, check=True)
        status, maxrss = map(int, report.read().split())
        out.seek(0)
        err.seek(0)
        return status, out.read().decode(), err.read().decode(), maxrss / 1024


def _records(out):
    """Method, verdict and arc count of each verdict record."""
    return [(r["method"], r["futile"], r["arc_count"]) for r in json.loads(out)]


LIBRARY = (
    "import json, sys\n"
    "from orbgraph.futility import verdict_records\n"
    "from orbgraph.perm import load_group\n"
    "group = load_group(sys.argv[1])\n"
    "print(json.dumps(verdict_records(group, 1, 2, ['structural', 'oracle'])))\n"
)

# a row: the interpreter arguments that precede the group file, the digest
# of stdout, and the digest expected from the graph of (1,2)'s arc count
ROWS = {
    "orbits": (
        ["-m", "orbgraph", "orbits"],
        lambda out: (out.count("|"), out.count(",")),
        lambda arcs: (0, N - 1),
    ),
    "graph": (
        ["-m", "orbgraph", "graph", "--pair", "1,2", "--json"],
        lambda out: len(json.loads(out)["arcs"]),
        lambda arcs: arcs,
    ),
    "refine": (
        ["-m", "orbgraph", "refine", "--pair", "1,2", "--partition", "unit"],
        lambda out: json.loads(out)["cells_after"],
        lambda arcs: 1,
    ),
    "futility structural": (
        ["-m", "orbgraph", "futility", "--pair", "1,2", "--method", "structural", "--json"],
        _records,
        lambda arcs: [("structural", False, arcs)],
    ),
    "futility oracle": (
        ["-m", "orbgraph", "futility", "--pair", "1,2", "--method", "oracle", "--json"],
        _records,
        lambda arcs: [("oracle", False, arcs)],
    ),
    "library verdict_records": (
        ["-c", LIBRARY],
        _records,
        lambda arcs: [("structural", False, arcs), ("oracle", False, arcs)],
    ),
}


@pytest.mark.parametrize("family, arcs", [("C", N), ("D", 2 * N)], ids=[f"C{N}", f"D{N}"])
@pytest.mark.parametrize("row", ROWS)
def test_row_within_budget(group_files, row, family, arcs):
    args, digest, expected = ROWS[row]
    status, out, err, rss_mb = _run([sys.executable, *args, str(group_files[family])])
    assert status == 0, err
    assert digest(out) == expected(arcs)
    assert rss_mb <= BUDGET_MB
