"""Random graph text and random arguments: parse_graph either parses or
raises an input error, and every subcommand exits 0, 1 or 2 without
raising."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgraph.cli import SUBCOMMANDS, run
from qcgraph.errors import QcgError
from qcgraph.graph import parse_graph
from suitegraphs import dumbbell, format_graph, gamma1, gamma2, theta, tree3

NAMES = ["a", "b", "c", "e1", "u", "v", "x", "l1", "l2", "w1"]
name = st.sampled_from(NAMES)
number = st.one_of(
    st.integers(-3, 8).map(str), st.sampled_from(["", "x", "1.5", "+2"])
)
junk = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16
).filter(lambda s: "\n" not in s and "\r" not in s)

line = st.one_of(
    st.builds(lambda e, a, b: f"edge {e} {a} {b}", name, name, name),
    st.builds(lambda v, x: f"boundary {v} {x}", name, number),
    st.builds(
        lambda *p: " ".join(p), st.sampled_from(["edge", "boundary"]), name, name
    ),
    st.sampled_from(["", "# comment", "  edge a u v  # trailing"]),
    junk,
)
random_text = st.lists(line, max_size=6).map("\n".join)


@st.composite
def suite_text(draw) -> str:
    """A small valid graph with random boundary labels, sometimes with one
    random line inserted."""
    g = draw(st.sampled_from([theta, dumbbell, gamma1, gamma2, tree3]))()
    labels = {v: draw(st.integers(0, 4)) for v in g.boundary_vertices}
    lines = format_graph(g, labels).splitlines()
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(line))
    return "\n".join(lines)


graph_text = st.integers(0, 3).flatmap(
    lambda i: random_text if i == 0 else suite_text()
)

# levels stay small enough that every subcommand finishes quickly
level = st.integers(1, 4).map(str)
bad_level = st.sampled_from(["-1", "0", "", "two", "1e3"])
cap = st.sampled_from(["-1", "0", "1", "64", "4096", "", "lots"])


def often(p: float = 0.9):
    return st.integers(0, 99).map(lambda x: x < 100 * p)


@st.composite
def argv(draw, graph_path: str, out_path: str) -> list[str]:
    """Mostly well-formed calls, with each part sometimes missing or
    replaced by junk."""
    args = [draw(st.sampled_from(SUBCOMMANDS)) if draw(often()) else draw(junk)]
    if draw(often()):
        bad_path = st.sampled_from(["", "/nonexistent"])
        args += ["--graph", graph_path if draw(often()) else draw(bad_path)]
    if draw(often()):
        args += ["--level", draw(level if draw(often()) else bad_level)]
    if draw(often(0.3)):
        args += ["--cap", draw(cap)]
    if draw(often(0.9 if args[0] == "cut" else 0.05)):
        args += ["--edges", ",".join(draw(st.lists(name, max_size=3)))]
    if draw(often(0.2)):
        args += ["--output", draw(st.sampled_from(["-", out_path]))]
    if draw(often(0.05)):
        args.insert(draw(st.integers(0, len(args))), draw(junk))
    return args


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        yield d


FUZZ = settings(max_examples=300, deadline=None)


@FUZZ
@given(graph_text)
def test_parse_graph_parses_or_rejects(text):
    try:
        parse_graph(text)
    except (QcgError, ValueError):
        pass


@FUZZ
@given(st.data(), graph_text)
def test_cli_exit_codes(workdir, data, text):
    graph_path = os.path.join(workdir, "g.txt")
    out_path = os.path.join(workdir, "out.txt")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    args = data.draw(argv(graph_path, out_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    assert code in (0, 1, 2), (args, text)
