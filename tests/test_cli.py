"""Command-line interface: golden output, determinism and exit codes."""

import hashlib

import pytest

from qcgraph.cli import run
from suitegraphs import dumbbell, format_graph, gamma1, theta, tree3

THETA_ENUMERATE = """\
0\t0\t0
0\t1\t1
0\t2\t2
1\t0\t1
1\t1\t0
1\t1\t2
1\t2\t1
2\t0\t2
2\t1\t1
2\t2\t0
"""

# qcgraph rep --level 4 on the dumbbell: one matrix per basis cycle
REP_DUMBBELL_4 = """\
cycle a
0 -> 30, 0/1
1 -> 31, 0/1
2 -> 32, 0/1
3 -> 33, 0/1
4 -> 34, 0/1
5 -> 22, 0/1
6 -> 23, 0/1
7 -> 24, 0/1
8 -> 25, 0/1
9 -> 26, 0/1
10 -> 27, 0/1
11 -> 28, 0/1
12 -> 29, 0/1
13 -> 13, 0/1
14 -> 14, 0/1
15 -> 15, 1/2
16 -> 16, 0/1
17 -> 17, 1/2
18 -> 18, 0/1
19 -> 19, 0/1
20 -> 20, 1/2
21 -> 21, 0/1
22 -> 5, 0/1
23 -> 6, 0/1
24 -> 7, 0/1
25 -> 8, 0/1
26 -> 9, 0/1
27 -> 10, 0/1
28 -> 11, 0/1
29 -> 12, 0/1
30 -> 0, 0/1
31 -> 1, 0/1
32 -> 2, 0/1
33 -> 3, 0/1
34 -> 4, 0/1
cycle b
0 -> 4, 0/1
1 -> 3, 0/1
2 -> 2, 0/1
3 -> 1, 0/1
4 -> 0, 0/1
5 -> 12, 0/1
6 -> 10, 0/1
7 -> 11, 0/1
8 -> 8, 0/1
9 -> 9, 1/2
10 -> 6, 0/1
11 -> 7, 0/1
12 -> 5, 0/1
13 -> 21, 0/1
14 -> 19, 0/1
15 -> 20, 0/1
16 -> 16, 0/1
17 -> 17, 1/2
18 -> 18, 0/1
19 -> 14, 0/1
20 -> 15, 0/1
21 -> 13, 0/1
22 -> 29, 0/1
23 -> 27, 0/1
24 -> 28, 0/1
25 -> 25, 0/1
26 -> 26, 1/2
27 -> 23, 0/1
28 -> 24, 0/1
29 -> 22, 0/1
30 -> 34, 0/1
31 -> 33, 0/1
32 -> 32, 0/1
33 -> 31, 0/1
34 -> 30, 0/1
"""

# sha256 of qcgraph ext-cocycle --level 4 on the dumbbell
EXT_COCYCLE_DUMBBELL_4 = (
    "96bace2c2cf064dc203e57845c6df6a3145dbf42203884f5004ffd4fc9331f95"
)


@pytest.fixture
def graph_file(tmp_path):
    def write(graph, boundary=None, name="g.txt"):
        path = tmp_path / name
        path.write_text(format_graph(graph, boundary or {}))
        return str(path)

    return write


def run_capture(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGolden:
    def test_enumerate_theta(self, graph_file, capsys):
        path = graph_file(theta())
        code, out, _ = run_capture(["enumerate", "--graph", path, "--level", "2"], capsys)
        assert code == 0
        assert out == THETA_ENUMERATE

    def test_cohomology_theta(self, graph_file, capsys):
        path = graph_file(theta())
        code, out, _ = run_capture(["cohomology", "--graph", path, "--level", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "order 8"

    def test_oracle_count_matches(self, graph_file, capsys):
        path = graph_file(theta())
        code, out, _ = run_capture(["oracle-count", "--graph", path, "--level", "2"], capsys)
        assert code == 0
        assert out == "classes 8\n"

    def test_ext_cocycle_dumbbell(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, out, _ = run_capture(
            ["ext-cocycle", "--graph", path, "--level", "4"], capsys
        )
        assert code == 0
        assert "1/2" in out  # the -1 entries at the doubly-fixed weight
        assert "target 1/2" in out

    def test_ext_cocycle_dumbbell_digest(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, out, _ = run_capture(
            ["ext-cocycle", "--graph", path, "--level", "4"], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXT_COCYCLE_DUMBBELL_4

    def test_ext_cocycle_without_cycles_is_empty(self, graph_file, capsys, tmp_path):
        # no cycle means an empty table and no stabilizer to report
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        for path in (graph_file(tree3()), str(empty)):
            code, out, err = run_capture(
                ["ext-cocycle", "--graph", path, "--level", "2"], capsys
            )
            assert (code, out, err) == (0, "", "")

    def test_rep_dumbbell(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, out, _ = run_capture(["rep", "--graph", path, "--level", "4"], capsys)
        assert code == 0
        assert out == REP_DUMBBELL_4

    def test_orbits_dumbbell(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, out, _ = run_capture(["orbits", "--graph", path, "--level", "4"], capsys)
        assert code == 0
        assert "orbit 2,2,2 size 1 stabilizer [a;b]" in out

    def test_output_file(self, graph_file, capsys, tmp_path):
        path = graph_file(theta())
        dest = tmp_path / "out.txt"
        code, out, _ = run_capture(
            ["enumerate", "--graph", path, "--level", "2", "--output", str(dest)],
            capsys,
        )
        assert code == 0 and out == ""
        assert dest.read_text() == THETA_ENUMERATE

    def test_byte_identical_across_runs(self, graph_file, capsys):
        path = graph_file(dumbbell())
        outs = set()
        for _ in range(3):
            _, out, _ = run_capture(
                ["ext-cocycle", "--graph", path, "--level", "4"], capsys
            )
            outs.add(out)
        assert len(outs) == 1


class TestExitCodes:
    def test_verify_parity_pass(self, graph_file, capsys):
        path = graph_file(gamma1(), {"w1": 2})
        code, out, _ = run_capture(
            ["verify-parity", "--graph", path, "--level", "4"], capsys
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_verify_functorial_pass(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, out, _ = run_capture(
            ["verify-functorial", "--graph", path, "--level", "4"], capsys
        )
        assert code == 0 and out == "PASS\n"

    def test_cap_exceeded_is_input_error(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, _, err = run_capture(
            ["verify-functorial", "--graph", path, "--level", "4", "--cap", "1"],
            capsys,
        )
        assert code == 2 and "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run_capture(
            ["enumerate", "--graph", "/nonexistent", "--level", "2"], capsys
        )
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("dest", ["missing/out.txt", "."])
    def test_unwritable_output_is_input_error(
        self, graph_file, tmp_path, capsys, dest
    ):
        # a path in a missing directory, and a path that is a directory
        path = graph_file(theta())
        target = tmp_path / dest
        code, out, err = run_capture(
            ["enumerate", "--graph", path, "--level", "2", "--output", str(target)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_bad_level(self, graph_file, capsys):
        path = graph_file(theta())
        code, _, err = run_capture(["enumerate", "--graph", path, "--level", "0"], capsys)
        assert code == 2 and "error:" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_capture(["frobnicate", "--graph", "x", "--level", "2"], capsys)
        assert code == 2

    def test_cut_dumbbell(self, graph_file, capsys):
        path = graph_file(dumbbell())
        code, out, _ = run_capture(
            ["cut", "--graph", path, "--level", "4", "--edges", "c"], capsys
        )
        assert code == 0
        assert "pair c c:w1 c:w2" in out
        assert out.count("component") == 2

    def test_cut_unknown_edge_is_input_error(self, graph_file, capsys):
        path = graph_file(theta())
        code, out, err = run_capture(
            ["cut", "--graph", path, "--level", "2", "--edges", "zz"], capsys
        )
        assert code == 2 and out == ""
        assert err == "error: unknown edges: ['zz']\n"

    def test_enumerate_long_circuit(self, tmp_path, capsys):
        # 700 trivalent vertices on one circuit, each with a leg labelled 0:
        # 1400 edges, deeper than the interpreter's recursion limit
        n = 700
        lines = []
        for i in range(n):
            lines.append(f"edge l{i} v{i} w{i}")
            lines.append(f"edge c{i} v{i} v{(i + 1) % n}")
        lines += [f"boundary w{i} 0" for i in range(n)]
        path = tmp_path / "circuit.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_capture(
            ["enumerate", "--graph", str(path), "--level", "2"], capsys
        )
        assert code == 0 and err == ""
        rows = out.splitlines()
        assert len(rows) == 3
        assert rows == sorted(rows)  # circuit edges 0, 1, 2 in turn
        assert [set(r.split("\t")) for r in rows] == [{"0"}, {"0", "1"}, {"0", "2"}]
